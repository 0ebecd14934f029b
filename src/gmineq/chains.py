"""Inequality-chain evaluators.

Each evaluator computes the singular values of every term of a chain once;
`reports.chain_block` then evaluates a whole norm list with one
`norms.norm_values` call per term, and `chain_margins` is the one margin
and pass rule, shared with the hunt and the lemmas.  All chain terms are
Hermitian PSD (except the commuting product right side).  Each power of a
mean and each sandwich spectrum is taken from the singular values of one
n x n factor, so no positive eigenvalue is ever zeroed or squared away.

Spectral data live in an `InstanceSpectra`, which has one layout: a stack
of K instances of one n, their pairs laid end to end and each instance's
pair count, so that the instances of one n share one stack whatever
their m (the sweep's n-groups and the hunt's).  An `InstanceSet`'s
spectra are the stack of that one instance.  Each spectral value is
defined once: one without parameters (both sums, the decompositions, the
condition number, the commuting sides) as a `functools.cached_property`,
one with parameters as a method memoized by `_memoized`.  A chain is one
row of `_PARAM_CHAINS`, which declares its configured chain, hypothesis,
sides, grid (`chain_grids`), status (`point_status`) and instance kind.  A
hypothesis and a status are elementwise expressions, so one call decides
a point (floats) or a whole grid or hunt batch ((P,) columns): `_require`
checks a grid's columns at once, and `point_status` gives a str at a
point and an array of statuses on columns.
`grid_terms` evaluates a chain's whole parameter grid on a stack at
once: the sides take one (s, t, r, p) per grid point, which `linalg`
broadcasts against every instance's own decompositions.  The one-point
evaluators (`main_chain_terms`, `geo_z_terms`, `t_chain_terms`,
`commuting_terms`) are row (0, 0) of `grid_terms` on their instance's
stack of one, so they run the code that every sweep runs.
`ChainTerms.take` splits a stack's terms by m, Z's spectrum cut to each
instance's m n.

Terms of different sizes (the block matrix Z is mn x mn, the outer terms
n x n) are compared under the direct-sum convention ||A|| = ||A (+) 0||:
Ky Fan norms treat missing singular values as zeros.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property, partial, wraps

import numpy as np

from . import errors
from .blocks import InstanceSet
from .generate import SpectrumLaw
from .linalg import (hermitian_eig, power_from_eig, power_rows, psd_sv, require_pd, sum_pairs,
                     svd)
from .means import mean_factor
from .norms import NormSpec, singular_values

DEFAULT_TOL_REL = 1e-8
DEFAULT_CONDITION_CAP = 1e8
# A commuting pair's commutator may be this much of |A_i| |B_i| (Frobenius).
COMMUTING_RTOL = 1e-12


@dataclass(frozen=True)
class ChainParams:
    """Exponent parameters (s, r, p) and mean weight t: floats at one
    point, or (P,) columns of a grid or hunt batch, which the chain rules
    decide at once (`point_status`)."""

    s: float = 2.0
    r: float = 1.0
    p: float = 1.0
    t: float = 0.5

    def as_dict(self) -> dict:
        return {"s": self.s, "r": self.r, "p": self.p, "t": self.t}


@dataclass(frozen=True)
class ChainTerms:
    """Singular values of every chain term, shared across norm evaluations:
    spectra (d,) and a float `condition_max` for one instance at one
    point, or (P, K, d) and one `condition_max` per instance for a grid
    of P points on a stack of K (`grid_terms`).  A point's status is not
    here: it needs the instance's m (`point_status`)."""

    chain_id: str
    lhs_sv: np.ndarray
    rhs_sv: np.ndarray
    mid_sv: np.ndarray | None = None
    condition_max: float | np.ndarray = 1.0

    @property
    def max_dim(self) -> int:
        """The largest term's dimension: the length of a spectrum, also on
        the (P, K, d) spectra of a parameter grid."""
        dims = [self.lhs_sv.shape[-1], self.rhs_sv.shape[-1]]
        if self.mid_sv is not None:
            dims.append(self.mid_sv.shape[-1])
        return max(dims)

    def take(self, rows: slice, width: int) -> "ChainTerms":
        """The terms of the instances `rows` of a stack, (P, K, d) grid
        spectra cut to their first `width` values: on an n-group's ragged
        stack, the rows of the instances of one m, with Z's spectrum cut
        to its m n values."""
        def cut(sv):
            return None if sv is None else np.ascontiguousarray(sv[..., rows, :width])

        return ChainTerms(self.chain_id, cut(self.lhs_sv), cut(self.rhs_sv), cut(self.mid_sv),
                          self.condition_max[rows])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _row(value, k: int):
    """Row k of a stacked value (an array or a tuple of arrays)."""
    return tuple(v[k] for v in value) if isinstance(value, tuple) else value[k]


def _stack(values: list, rows: list):
    """The stack of values[k] for k in `rows`, each an array or a tuple of
    arrays."""
    if isinstance(values[0], tuple):
        return tuple(_stack(list(parts), rows) for parts in zip(*values))
    return np.stack([values[k] for k in rows])


def _memoized(method):
    """An InstanceSpectra value with parameters: the method's result,
    memoized at scalar parameters under the key (method name,
    *parameters); with parameter arrays, memoized row by row as grid
    points (see `InstanceSpectra`) if one of them is a (P, 1) column, or
    else evaluated once."""
    name = method.__name__

    @wraps(method)
    def value(self, *params):
        key = (name, *params)
        try:
            return self._memo[key]
        except TypeError:  # parameter arrays
            grid = max([getattr(x, "ndim", 0) for x in params]) > 1
            return self._per_row(key, method) if grid else method(self, *params)
        except KeyError:
            pass
        result = self._memo[key] = method(self, *params)
        return result

    return value


class InstanceSpectra:
    """Spectral data of a stack of K instances of one n, each piece computed
    on first use.

    The stack holds its pairs laid end to end, A and B (sum(counts), n, n),
    and each instance's pair count: `counts` (K,) says that instance k
    owns the next counts[k] pairs, so instances of one n with different m
    share one stack.  One instance is the stack of one, counts [m].
    Values of the pairs (the decompositions of A_i and B_i, the mean
    factors) run on the pair axis, each instance's exponent repeated over
    its pairs; values of an instance (both sums, the left side, the
    condition number, the commuting sides) add its own pairs in order,
    starting from zeros (`_by_instance`), and have the axis (K,).  Z's
    spectrum carries the zeros of the stack's largest m (`z_sv`);
    `ChainTerms.take` cuts each instance's row to its own m n.

    A value without parameters (`sums`, `_eigs`, `condition_max`,
    `commuting_sv`) is a cached property, computed on first read.  A value
    with parameters is one method, memoized by `_memoized` in one memo.
    Parameters are scalars, or arrays whose shape says what a row is (the
    rule of `linalg`):

    - (P, 1) columns, a grid: a row is a grid point, broadcast against
      every instance's decompositions to give values (P, K, ...).  Each
      row's value is memoized as a (K, ...) stack under the row's scalar
      key, the key of a one-point evaluation, and only the distinct rows
      not there yet are evaluated, together; so each distinct mean,
      sandwich factor and sum of mean powers is decomposed once per
      instance, however many points and chains share it.
    - (K,), the hunt's: one point per instance, evaluated once and not
      memoized.

    Values at scalar parameters are memoized and shared by every chain and
    point.  Each value is computed exactly as a direct evaluation computes
    it (the same decomposition of the same array, the same linalg zeroing
    rule, each exponent applied as a scalar, each sum added in pair
    order), so each row and instance gets the bytes it gets alone.  Every
    decomposition is of an n x n matrix.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray, counts):
        self._A, self._B = A, B
        self._counts = np.asarray(counts, dtype=np.intp)
        self._starts = np.cumsum(self._counts) - self._counts
        self._owner = np.repeat(np.arange(len(self._counts)), self._counts)  # pair -> instance
        self._slot = np.arange(len(self._owner)) - self._starts[self._owner]  # pair -> its i
        self._memo = {}

    def _per_row(self, key: tuple, compute):
        """compute(self, *key[1:]) with grid-point rows: each row's value is
        taken from the memo under its scalar key; the distinct keys not
        there yet are evaluated together, each row's parameters broadcast
        against every instance, and remembered."""
        name, params = key[0], key[1:]
        count = next(x.size for x in params if np.ndim(x))
        columns = [x.ravel().tolist() if np.ndim(x) else [x] * count for x in params]
        slots = {}
        rows = [slots.setdefault((name, *row), len(slots)) for row in zip(*columns)]
        missing = [k for k in slots if k not in self._memo]
        if missing:
            values = compute(self, *(np.array([k[c] for k in missing]).reshape(-1, 1)
                                     if np.ndim(x) else x for c, x in enumerate(params, start=1)))
            for i, k in enumerate(missing):
                self._memo[k] = _row(values, i)
            if len(missing) == count:
                return values
        return _stack([self._memo[k] for k in slots], rows)

    def _per_pair(self, x):
        """An exponent for every pair: a scalar or a (P, 1) grid column as
        it is, and one exponent per instance repeated over the instance's
        pairs."""
        return x if np.ndim(x) != 1 else np.repeat(x, self._counts)

    def _by_instance(self, X: np.ndarray) -> np.ndarray:
        """Each instance's sum of its pairs' X (..., sum(counts), n, n),
        Hermitized, (..., K, n, n): the pairs laid out (..., K, max m, n, n),
        padded with zeros, and summed by `sum_pairs`, so in pair order
        starting from zeros.  hermitize is idempotent bit for bit, so the
        Hermitization that `psd_sv` applies before `eigh` moves no byte
        (`tests/test_linalg.py`)."""
        padded = np.zeros(X.shape[:-3] + (len(self._counts), int(self._counts.max(initial=0)))
                          + X.shape[-2:], dtype=np.complex128)
        padded[..., self._owner, self._slot, :, :] = X
        return sum_pairs(padded)

    @cached_property
    def sums(self) -> tuple:
        """Each instance's sum A and sum B, Hermitized, (K, n, n) each; one
        that is not finite raises NonFiniteInput in `_eigs`, not a warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._by_instance(self._A), self._by_instance(self._B)

    @cached_property
    def _eigs(self) -> tuple:
        """(eig_A, eig_B, eig_sum_A, eig_sum_B): the decompositions of every
        A_i and every B_i, (sum(counts), n, n) in pair order, and of each
        sum A and sum B, (K, n, n), by one `hermitian_eig` call.  A sum
        with the bytes of its instance's one pair (m = 1; not when the pair
        holds a -0.0, which the sum turns to 0.0) takes that pair's row."""
        P, K = len(self._owner), len(self._counts)
        pairs, sums = np.concatenate([self._A, self._B]), np.concatenate(self.sums)
        first = np.concatenate([self._starts, P + self._starts])  # each sum's first pair
        same = np.tile(self._counts == 1, 2) & (
            sums.view(np.uint64) == pairs[first].view(np.uint64)).all(axis=(-2, -1))
        eig = hermitian_eig(np.concatenate([pairs, sums[~same]]))
        sum_eig = eig[np.where(same, first, 2 * P + np.cumsum(~same) - 1)]
        return eig[:P], eig[P:2 * P], sum_eig[:K], sum_eig[K:]

    eig_A = property(lambda self: self._eigs[0])
    eig_B = property(lambda self: self._eigs[1])
    eig_sum_A = property(lambda self: self._eigs[2])
    eig_sum_B = property(lambda self: self._eigs[3])

    @_memoized
    def check(self, commuting: bool) -> bool:
        """True, after the PD floor of every A_i and B_i, read from their
        decompositions, then (if `commuting`) the commutation of every
        pair, in Frobenius norm; the message names the first failing pair."""
        require_pd(self.eig_A)
        require_pd(self.eig_B)
        if commuting:
            A, B = self._A, self._B
            defect = np.linalg.norm(A @ B - B @ A, axis=(-2, -1))
            scale = np.linalg.norm(A, axis=(-2, -1)) * np.linalg.norm(B, axis=(-2, -1))
            bad = defect > COMMUTING_RTOL * scale
            if bad.any():
                raise errors.NotCommuting(
                    f"pair commutator norm {defect[bad][0]:.3e} exceeds {COMMUTING_RTOL:.1e}"
                    f" * {scale[bad][0]:.3e}")
        return True

    @cached_property
    def condition_max(self):
        """Largest condition number over the inputs and both sums, one per
        instance (K,)."""
        def ratio(eig):
            lo, hi = eig.eigenvalues[..., -1], eig.eigenvalues[..., 0]
            return np.where(lo <= 0.0, np.inf, hi / np.where(lo <= 0.0, 1.0, lo))

        pairs = np.maximum(ratio(self.eig_A), ratio(self.eig_B))
        return np.maximum.reduce([np.maximum.reduceat(pairs, self._starts), ratio(self.eig_sum_A),
                                  ratio(self.eig_sum_B), np.ones(len(self._counts))])

    @_memoized
    def _mean_svds(self, s, t) -> tuple:
        """(W, sigma) of each mean factor F_i = W diag(sigma) Q*, where
        F_i F_i* = A_i^s #_t B_i^s, stacked on the pair axis, (..., n, n) and
        (..., n)."""
        return svd(mean_factor(self.eig_A, self.eig_B, self._per_pair(s),
                               self._per_pair(t)))[:2]

    @_memoized
    def lhs_sv(self, s, t, r) -> np.ndarray:
        """Singular values of sum_i (A_i^s #_t B_i^s)^r, each power taken as
        W diag(sigma^{2r}) W* from its mean factor."""
        W, sigma = self._mean_svds(s, t)
        weights = power_rows(sigma, 2.0 * self._per_pair(r))
        return _read_only(psd_sv(self._by_instance((W * weights[..., None, :]) @ W.conj().mT)))

    @_memoized
    def _factor_sv(self, a_exp, b_exp) -> np.ndarray:
        """Singular values of F = (sum B)^{b/2} (sum A)^a."""
        return singular_values(power_from_eig(self.eig_sum_B, b_exp / 2.0)
                               @ power_from_eig(self.eig_sum_A, a_exp))

    @_memoized
    def sandwich_sv(self, a_exp, b_exp, inv_p) -> np.ndarray:
        """Singular values of ((sum A)^a (sum B)^b (sum A)^a)^{inv_p}: the
        sandwich is F* F with F = (sum B)^{b/2} (sum A)^a, so they are the
        singular values of F to the power 2 inv_p."""
        return _read_only(power_rows(self._factor_sv(a_exp, b_exp), 2.0 * inv_p))

    @_memoized
    def z_sv(self, x) -> np.ndarray:
        """Singular values of Z^x: Z's nonzero spectrum is that of the core
        (sum A)^{1/2} (sum B) (sum A)^{1/2}, the sandwich with (a, b) =
        (1/2, 1), followed by (m - 1) n exact zeros, m the largest pair
        count of the stack."""
        core = self.sandwich_sv(0.5, 1.0, x)
        zeros = (int(self._counts.max()) - 1) * self._A.shape[-1]
        return _read_only(np.concatenate([core, np.zeros(core.shape[:-1] + (zeros,))], axis=-1))

    @cached_property
    def commuting_sv(self) -> tuple:
        """Singular values of sum A_i B_i and (sum A_i^{1/2} B_i^{1/2})^2,
        each product taken for every pair at once and summed by instance."""
        A_half, B_half = power_from_eig(self.eig_A, 0.5), power_from_eig(self.eig_B, 0.5)
        return (_read_only(psd_sv(self._by_instance(self._A @ self._B))),
                _read_only(psd_sv(self._by_instance(A_half @ B_half), 2.0)))


def t_chain_sides(spectra: InstanceSpectra, s, t, r, p) -> tuple:
    """(lhs_sv, None, rhs_sv) of the weighted chain: sum (A_i^s #_t B_i^s)^r
    against the sandwich with exponents (1-t)srp/2 and tsrp, on a stack
    at one point, at one (s, t, r, p) per grid point or with one
    (s, t, r, p) per instance."""
    return (spectra.lhs_sv(s, t, r), None,
            spectra.sandwich_sv((1.0 - t) * s * r * p / 2.0, t * s * r * p, 1.0 / p))


def t_chain_status(params: ChainParams) -> str | np.ndarray:
    """Proven parameter regimes of the weighted chain; everything else is
    the open conjecture region.  At t in {0, 1} the chain reads
    |||sum A_i^{sr}||| <= |||(sum A)^{sr}||| (or the same with B), which
    holds for sr >= 1 because x^{sr} is superadditive under every unitarily
    invariant norm (Ando-Zhan 1999; Bourin-Uchiyama 2007).  Decided by one
    elementwise expression: a str at float fields, an array of statuses
    on (P,) columns."""
    s, r, p, t = params.s, params.r, params.p, params.t
    proven = (((s == 1.0) & (r >= 1.0) & (p > 0.0))
              | (((t == 0.0) | (t == 1.0)) & (s * r >= 1.0))
              | ((s >= 2.0) & (t == 0.5) & (r >= 1.0) & (r * p >= 1.0)))
    return np.where(proven, "proven", "conjectured")[()]


def _main_sides(sp: InstanceSpectra, s, t, r, p) -> tuple:
    return (sp.lhs_sv(s, 0.5, r), sp.z_sv(s * r / 2.0),
            sp.sandwich_sv(s * r * p / 4.0, s * r * p / 2.0, 1.0 / p))


def _geo_z_sides(sp: InstanceSpectra, s, t, r, p) -> tuple:
    return sp.lhs_sv(s, 0.5, 1.0), None, sp.z_sv(s / 2.0)


def _commuting_sides(sp: InstanceSpectra, s, t, r, p, product: bool) -> tuple:
    """The sides of a commuting chain, after the stack's commutator check:
    sum A_i B_i, (sum A_i^{1/2} B_i^{1/2})^2, and (sum A)(sum B) if
    `product`, else the symmetrized sandwich.  They ignore (s, t, r, p),
    and repeat their (K, d) spectra over the grid's points."""
    sp.check(True)
    rhs_sv = singular_values(sp.sums[0] @ sp.sums[1]) if product else sp.sandwich_sv(0.5, 1.0, 1.0)
    points = np.shape(s)[:-1]  # (P,) for (P, 1) grid columns, () at one point
    return tuple(np.broadcast_to(sv, points + sv.shape) for sv in (*sp.commuting_sv, rhs_sv))


# A chain: the configured chain that selects it, a point's hypothesis and
# its text, its (lhs, mid, rhs) spectra of a stack at scalar or per-row
# (s, t, r, p), the ChainParams fields its grid varies in loop order, a
# point's status on m pairs, its instance kind (None: any), other fields.
# A hypothesis and a status are elementwise expressions (& and |), which
# decide float fields or (P,) columns alike; a constant one is broadcast
# by its reader.
_Chain = namedtuple("_Chain", "name holds needs sides axes status kind base",
                    defaults=(lambda q, m: "proven", None, ChainParams()))
# The weighted chain is refuted at m >= 2 and sr < 1: A_i = B_i = I gives
# lhs m I against rhs m^{sr} I at every t, p and n.
_PARAM_CHAINS = {
    "main": _Chain("main", lambda q: (q.s >= 2.0) & (q.r >= 1.0) & (q.p > 0.0) & (q.r * q.p >= 1.0),
                   "s >= 2, r >= 1, p > 0 with rp >= 1", _main_sides, "srp"),
    "geo-z": _Chain("geo-z", lambda q: q.s >= 1.0, "s >= 1", _geo_z_sides, "s"),
    "t-chain": _Chain("t-chain", lambda q: ((q.s > 0.0) & (q.r > 0.0) & (q.p > 0.0)
                                            & (0.0 <= q.t) & (q.t <= 1.0)),
                      "s, r, p > 0 and t in [0, 1]", t_chain_sides, "srpt",
                      lambda q, m: np.where((m >= 2) & (q.s * q.r < 1.0), "refuted",
                                            t_chain_status(q))),
    "commuting-product": _Chain("commuting", lambda q: True, "commuting pairs",
                                partial(_commuting_sides, product=True), "",
                                kind="commuting", base=ChainParams(s=1.0)),
    "commuting-symmetrized": _Chain("commuting", lambda q: True, "commuting pairs",
                                    partial(_commuting_sides, product=False), "",
                                    kind="commuting", base=ChainParams(s=1.0)),
}
CHAIN_NAMES = tuple(dict.fromkeys(row.name for row in _PARAM_CHAINS.values()))


def chain_grids(name: str, values: dict) -> dict:
    """Chain id -> (instance kind, hypothesis, grid) of each row that the
    configured chain `name` selects: the grid holds the points of the
    product of values[field] over the fields the row varies that satisfy
    its hypothesis, in order."""
    return {cid: (row.kind, row.needs,
                  [q for q in (replace(row.base, **dict(zip(row.axes, point)))
                               for point in itertools.product(*(values[a] for a in row.axes)))
                   if row.holds(q)])
            for cid, row in _PARAM_CHAINS.items() if row.name == name}


def point_status(chain_id: str, params: ChainParams, m) -> str | np.ndarray:
    """The status of chain `chain_id` at `params` on instances of m pairs,
    "proven", "conjectured" or "refuted", decided by one call of its
    row's rule: a str at float fields, an array of statuses on (P,)
    columns (m an int or a (P,) column), one per point."""
    return np.full(np.shape(params.s), _PARAM_CHAINS[chain_id].status(params, m))[()]


def _require(chain_id: str, points: list) -> tuple:
    """The sides of chain `chain_id` and the points' fields as (P,) float64
    columns in one ChainParams, after checking the columns with one
    `holds` call; the message names the first point that fails the
    hypothesis."""
    row = _PARAM_CHAINS[chain_id]
    q = ChainParams(*np.array([(x.s, x.r, x.p, x.t) for x in points], dtype=np.float64).T)
    holds = row.holds(q)
    if not np.all(holds):
        x = points[np.argmin(np.broadcast_to(holds, len(points)))]
        raise errors.HypothesisViolation(
            f"{chain_id} requires {row.needs}; got s={x.s}, r={x.r}, p={x.p}, t={x.t}")
    return row.sides, q


def _point_terms(chain_id: str, inst: InstanceSet, q: ChainParams) -> ChainTerms:
    """The terms of `inst` (of the kind the chain needs) at one point: row
    (0, 0) of `grid_terms` on its stack of one, spectra (d,) and a float
    condition_max."""
    kind = _PARAM_CHAINS[chain_id].kind
    if kind not in (None, inst.kind):
        raise errors.NotCommuting(f"instance kind is {inst.kind!r}, need {kind!r}")
    terms = grid_terms(inst.spectra, chain_id, [q])
    sv = [None if x is None else x[0, 0] for x in (terms.lhs_sv, terms.rhs_sv, terms.mid_sv)]
    return ChainTerms(chain_id, *sv, float(terms.condition_max[0]))


def grid_terms(spectra: InstanceSpectra, chain_id: str, points: list) -> ChainTerms:
    """Terms of chain `chain_id` (a key of `_PARAM_CHAINS`) at every
    ChainParams of `points` on a stack of K instances of one n: spectra
    (P, K, d), row k for point k, and `condition_max` one per instance.
    Every point must satisfy the chain's hypotheses.  The points are
    evaluated on the instances' spectra with one (s, t, r, p) per row, as
    (P, 1) grid columns, so each distinct factor is decomposed once per
    instance; the one-point evaluators (`*_terms`) take row (0, 0) of a
    grid of one."""
    sides, q = _require(chain_id, points)
    lhs_sv, mid_sv, rhs_sv = sides(spectra, *(x[:, None] for x in (q.s, q.t, q.r, q.p)))
    return ChainTerms(chain_id, lhs_sv, rhs_sv, mid_sv, spectra.condition_max)


def main_chain_terms(inst: InstanceSet, params: ChainParams) -> ChainTerms:
    """Terms of the three-part chain: sum of mean powers, Z^{sr/2}, and the
    sandwich of sums.  Hypotheses: s >= 2, r >= 1, p > 0, rp >= 1."""
    return _point_terms("main", inst, params)


def geo_z_terms(inst: InstanceSet, s: float) -> ChainTerms:
    """Left step alone: ||sum A_i^s # B_i^s|| <= ||Z^{s/2}||, valid for s >= 1."""
    return _point_terms("geo-z", inst, replace(_PARAM_CHAINS["geo-z"].base, s=s))


def t_chain_terms(inst: InstanceSet, params: ChainParams) -> ChainTerms:
    """Weighted two-term chain: ||sum (A_i^s #_t B_i^s)^r|| against the
    sandwich with exponents (1-t)srp/2 and tsrp.  Conjectured-regime
    negative margins are recorded, never raised."""
    return _point_terms("t-chain", inst, params)


def commuting_terms(inst: InstanceSet, variant: str) -> ChainTerms:
    """Commuting-pair chains: ||sum A_i B_i|| <= ||(sum A_i^{1/2} B_i^{1/2})^2||
    <= ||(sum A)(sum B)|| (product) or the symmetrized right side, on a
    commuting instance, once its pairs pass `InstanceSpectra.check`: its
    row of chain "commuting-<variant>", which `grid_terms` takes on a stack."""
    if variant not in ("product", "symmetrized"):
        raise errors.ConfigError(f"unknown commuting variant {variant!r}")
    chain_id = f"commuting-{variant}"
    return _point_terms(chain_id, inst, _PARAM_CHAINS[chain_id].base)


def chain_margins(lhs, mid, rhs, tol_rel: float = DEFAULT_TOL_REL) -> tuple:
    """(margins, min margin, scale, passed) of a chain's norm values,
    elementwise over arrays of any shape: margins (mid - lhs, rhs - mid),
    or (rhs - lhs,) without a middle term, scale max(1, rhs), and passed
    where min margin >= -tol_rel * scale."""
    margins = (rhs - lhs,) if mid is None else (mid - lhs, rhs - mid)
    least, scale = np.minimum.reduce(margins), np.maximum(rhs, 1.0)
    return margins, least, scale, least >= -tol_rel * scale


def expand_norm_tokens(tokens, max_dim: int) -> list:
    """Expand norm tokens; 'kyfan:all' becomes KyFan 1..max_dim."""
    specs = []
    for tok in tokens:
        if isinstance(tok, NormSpec):
            specs.append(tok)
        elif tok.strip().lower() == "kyfan:all":
            specs.extend(NormSpec.ky_fan(k) for k in range(1, max_dim + 1))
        else:
            specs.append(NormSpec.parse(tok))
    return specs


def validate_run_fields(cfg) -> None:
    """The checks of the fields that sweep and hunt configs share: an
    integer base_seed, a SpectrumLaw, a nonempty list of norm labels that
    all parse, a finite number tol_rel >= 0 and a number condition_cap > 1."""
    errors.require_all(numbers.Integral, [cfg.base_seed],
                       f"base_seed must be an integer, got {cfg.base_seed!r}")
    if not isinstance(cfg.spectrum_law, SpectrumLaw):
        raise errors.ConfigError(f"spectrum_law must be a spectrum law, got {cfg.spectrum_law!r}")
    message = f"norms must be a nonempty list of norm labels, got {cfg.norms!r}"
    if not isinstance(cfg.norms, (list, tuple)) or not cfg.norms:
        raise errors.ConfigError(message)
    errors.require_all((str, NormSpec), cfg.norms, message)
    try:
        expand_norm_tokens(cfg.norms, 1)
    except errors.InvalidSpec as exc:
        raise errors.ConfigError(f"norms: {exc}") from None
    errors.require_all(numbers.Real, [cfg.tol_rel, cfg.condition_cap],
                       "tol_rel and condition_cap must be numbers")
    if not 0.0 <= cfg.tol_rel < math.inf:
        raise errors.ConfigError(f"tol_rel must be finite and >= 0, got {cfg.tol_rel!r}")
    if not cfg.condition_cap > 1.0:
        raise errors.ConfigError(f"condition_cap must be > 1, got {cfg.condition_cap!r}")
