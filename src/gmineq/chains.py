"""Inequality-chain evaluators.

Each evaluator computes the singular values of every term of a chain once;
`reports.chain_records` then evaluates a whole norm list with one
`norms.norm_values` call per term, and `chain_margins` is the one margin
and pass rule, shared with the hunt and the lemmas.  All chain terms are
Hermitian PSD (except the commuting product right side).  Each power of a
mean and each sandwich spectrum is taken from the singular values of one
n x n factor, so no positive eigenvalue is ever zeroed or squared away.

Terms of different sizes (the block matrix Z is mn x mn, the outer terms
n x n) are compared under the direct-sum convention ||A|| = ||A (+) 0||:
Ky Fan norms treat missing singular values as zeros.
"""

from __future__ import annotations

import numbers
import weakref
from dataclasses import dataclass

import numpy as np

from . import errors
from .blocks import InstanceSet
from .generate import SpectrumLaw
from .linalg import (EigenDecomposition, hermitian_eig, hermitize, power_from_eig, power_rows,
                     psd_sv, svd)
from .means import mean_factor
from .norms import NormSpec, singular_values

DEFAULT_TOL_REL = 1e-8
DEFAULT_CONDITION_CAP = 1e8


@dataclass(frozen=True)
class ChainParams:
    """Exponent parameters (s, r, p) and mean weight t."""

    s: float = 2.0
    r: float = 1.0
    p: float = 1.0
    t: float = 0.5

    def as_dict(self) -> dict:
        return {"s": self.s, "r": self.r, "p": self.p, "t": self.t}


@dataclass(frozen=True)
class ChainTerms:
    """Singular values of every chain term, shared across norm evaluations."""

    chain_id: str
    lhs_sv: np.ndarray
    rhs_sv: np.ndarray
    mid_sv: np.ndarray | None = None
    status: str = "proven"
    condition_max: float = 1.0

    @property
    def max_dim(self) -> int:
        dims = [self.lhs_sv.size, self.rhs_sv.size]
        if self.mid_sv is not None:
            dims.append(self.mid_sv.size)
        return max(dims)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _sum_pairs(X: np.ndarray) -> np.ndarray:
    """hermitize(sum_i X_i) over axis -3, added in order as Python's sum."""
    total = 0
    for i in range(X.shape[-3]):
        total = total + X[..., i, :, :]
    return hermitize(total)


def _per_pair(x):
    """One exponent per instance, spread over the instance's m pairs."""
    return x if np.ndim(x) == 0 else np.asarray(x)[..., None]


class InstanceSpectra:
    """Spectral data of one instance, or of a stack of equal-shape instances,
    each piece computed on first use.

    A and B are arrays (..., m, n, n), the leading axes () for one instance.
    Parameters are scalars, or one value per instance of a stack.  Values
    at scalar parameters are memoized and shared by every chain and
    parameter point; a stack with per-instance parameters is evaluated
    once.  Each value is computed exactly as a direct evaluation computes
    it (the same decomposition of the same array, the same linalg zeroing
    rule, each exponent applied as a scalar), so terms read from here are
    bitwise equal to uncached ones, and each instance of a stack gets the
    bytes it gets alone.  Every decomposition is of an n x n matrix.  An
    instance reaches its own as `inst.spectra`, which holds only a weak
    reference to the instance.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray, inst: InstanceSet | None = None):
        self._A, self._B = A, B
        self._inst = None if inst is None else weakref.proxy(inst)
        self._memo = {}

    def _cached(self, key, compute):
        try:
            if key in self._memo:
                return self._memo[key]
        except TypeError:  # per-instance parameter arrays: evaluated once, not memoized
            return compute()
        value = self._memo[key] = compute()
        return value

    def select(self, rows) -> "InstanceSpectra":
        """The spectra of the instances `rows` of a stack, keeping the
        input decompositions computed so far."""
        sub = InstanceSpectra(self._A[rows], self._B[rows])
        for key in (("A",), ("B",), ("sum_A",), ("sum_B",)):
            if key in self._memo:
                sub._memo[key] = self._memo[key][rows]
        return sub

    @property
    def eig_A(self) -> EigenDecomposition:
        """Decompositions of every A_i, stacked (..., m, n, n)."""
        return self._cached(("A",), lambda: hermitian_eig(self._A))

    @property
    def eig_B(self) -> EigenDecomposition:
        return self._cached(("B",), lambda: hermitian_eig(self._B))

    @property
    def eig_sum_A(self) -> EigenDecomposition:
        return self._cached(("sum_A",), lambda: hermitian_eig(_sum_pairs(self._A)))

    @property
    def eig_sum_B(self) -> EigenDecomposition:
        return self._cached(("sum_B",), lambda: hermitian_eig(_sum_pairs(self._B)))

    @property
    def condition_max(self):
        """Largest condition number over the inputs and both sums: a float,
        or one per instance of a stack."""

        def compute():
            pairs = self.eig_A.eigenvalues.shape[:-1]
            w = np.concatenate([self.eig_A.eigenvalues, self.eig_B.eigenvalues,
                                self.eig_sum_A.eigenvalues.reshape(pairs[:-1] + (1, -1)),
                                self.eig_sum_B.eigenvalues.reshape(pairs[:-1] + (1, -1))], axis=-2)
            lo, hi = w[..., -1], w[..., 0]
            ratio = np.where(lo <= 0.0, np.inf, hi / np.where(lo <= 0.0, 1.0, lo))
            worst = np.maximum(ratio.max(axis=-1), 1.0)
            return float(worst) if worst.ndim == 0 else worst

        return self._cached(("condition_max",), compute)

    def _mean_svds(self, s, t) -> tuple:
        """(W, sigma) of each mean factor F_i = W diag(sigma) Q*, where
        F_i F_i* = A_i^s #_t B_i^s, stacked (..., m, n, n) and (..., m, n)."""

        def compute():
            return svd(mean_factor(self.eig_A, self.eig_B, _per_pair(s), _per_pair(t)))[:2]

        return self._cached(("mean", s, t), compute)

    def lhs_sv(self, s, t, r) -> np.ndarray:
        """Singular values of sum_i (A_i^s #_t B_i^s)^r, each power taken as
        W diag(sigma^{2r}) W* from its mean factor."""

        def compute():
            W, sigma = self._mean_svds(s, t)
            weights = power_rows(sigma, 2.0 * _per_pair(r))
            acc = np.zeros(W.shape[:-3] + W.shape[-2:], dtype=np.complex128)
            for i in range(W.shape[-3]):
                Wi = W[..., i, :, :]
                acc += (Wi * weights[..., i, None, :]) @ Wi.conj().mT
            return _read_only(psd_sv(acc))

        return self._cached(("lhs", s, t, r), compute)

    def _factor_sv(self, a_exp, b_exp) -> np.ndarray:
        """Singular values of F = (sum B)^{b/2} (sum A)^a."""

        def compute():
            return singular_values(power_from_eig(self.eig_sum_B, b_exp / 2.0)
                                   @ power_from_eig(self.eig_sum_A, a_exp))

        return self._cached(("factor", a_exp, b_exp), compute)

    def sandwich_sv(self, a_exp, b_exp, inv_p) -> np.ndarray:
        """Singular values of ((sum A)^a (sum B)^b (sum A)^a)^{inv_p}: the
        sandwich is F* F with F = (sum B)^{b/2} (sum A)^a, so they are the
        singular values of F to the power 2 inv_p."""
        return self._cached(("sandwich", a_exp, b_exp, inv_p), lambda: _read_only(
            power_rows(self._factor_sv(a_exp, b_exp), 2.0 * inv_p)))

    def z_sv(self, x: float) -> np.ndarray:
        """Singular values of Z^x: Z's nonzero spectrum is that of the core
        (sum A)^{1/2} (sum B) (sum A)^{1/2}, the sandwich with (a, b) =
        (1/2, 1), followed by (m - 1) n exact zeros."""
        m, n = self._A.shape[-3:-1]
        return self._cached(("Z", x), lambda: _read_only(
            np.concatenate([self.sandwich_sv(0.5, 1.0, x), np.zeros((m - 1) * n)])))

    def commuting_sv(self) -> tuple:
        """Singular values of sum A_i B_i and (sum A_i^{1/2} B_i^{1/2})^2,
        after validating the instance."""

        def compute():
            inst = self._inst.validate()
            lhs = np.zeros((inst.n, inst.n), dtype=np.complex128)
            mid_root = np.zeros((inst.n, inst.n), dtype=np.complex128)
            A_half, B_half = power_from_eig(self.eig_A, 0.5), power_from_eig(self.eig_B, 0.5)
            for i, (Ai, Bi) in enumerate(zip(inst.A, inst.B)):
                lhs += Ai @ Bi
                mid_root += A_half[i] @ B_half[i]
            return _read_only(psd_sv(lhs)), _read_only(psd_sv(mid_root, 2.0))

        return self._cached(("commuting",), compute)


def condition_max(inst: InstanceSet) -> float:
    """Largest condition number over the inputs and both sums."""
    return inst.spectra.condition_max


def t_chain_sides(spectra: InstanceSpectra, s, t, r, p) -> tuple:
    """(lhs_sv, rhs_sv) of the weighted chain: sum (A_i^s #_t B_i^s)^r
    against the sandwich with exponents (1-t)srp/2 and tsrp, for one
    instance or, with one (s, t, r, p) per instance, a stack."""
    return (spectra.lhs_sv(s, t, r),
            spectra.sandwich_sv((1.0 - t) * s * r * p / 2.0, t * s * r * p, 1.0 / p))


def main_chain_terms(inst: InstanceSet, params: ChainParams) -> ChainTerms:
    """Terms of the three-part chain: sum of mean powers, Z^{sr/2}, and the
    sandwich of sums.  Hypotheses: s >= 2, r >= 1, p > 0, rp >= 1."""
    s, r, p = params.s, params.r, params.p
    if not (s >= 2.0 and r >= 1.0 and p > 0.0 and r * p >= 1.0):
        raise errors.HypothesisViolation(
            f"main chain requires s>=2, r>=1, p>0, rp>=1; got s={s}, r={r}, p={p}"
        )
    sp = inst.spectra
    return ChainTerms(
        chain_id="main",
        lhs_sv=sp.lhs_sv(s, 0.5, r),
        mid_sv=sp.z_sv(s * r / 2.0),
        rhs_sv=sp.sandwich_sv(s * r * p / 4.0, s * r * p / 2.0, 1.0 / p),
        status="proven",
        condition_max=condition_max(inst),
    )


def geo_z_terms(inst: InstanceSet, s: float) -> ChainTerms:
    """Left step alone: ||sum A_i^s # B_i^s|| <= ||Z^{s/2}||, valid for s >= 1."""
    if not s >= 1.0:
        raise errors.HypothesisViolation(f"geo-z step requires s >= 1, got s={s}")
    sp = inst.spectra
    return ChainTerms(
        chain_id="geo-z",
        lhs_sv=sp.lhs_sv(s, 0.5, 1.0),
        rhs_sv=sp.z_sv(s / 2.0),
        status="proven",
        condition_max=condition_max(inst),
    )


def t_chain_status(params: ChainParams) -> str:
    """Proven parameter regimes of the weighted chain; everything else is
    the open conjecture region."""
    s, r, p, t = params.s, params.r, params.p, params.t
    if s == 1.0 and r >= 1.0 and p > 0.0:
        return "proven"
    if s >= 2.0 and t == 0.5 and r >= 1.0 and r * p >= 1.0:
        return "proven"
    if s == 2.0 and t == 0.5 and r * p >= 1.0:
        return "proven"
    return "conjectured"


def t_chain_terms(inst: InstanceSet, params: ChainParams) -> ChainTerms:
    """Weighted two-term chain: ||sum (A_i^s #_t B_i^s)^r|| against the
    sandwich with exponents (1-t)srp/2 and tsrp.  Conjectured-regime
    negative margins are recorded, never raised."""
    s, r, p, t = params.s, params.r, params.p, params.t
    if not 0.0 <= t <= 1.0:
        raise errors.HypothesisViolation(f"t must lie in [0, 1], got {t}")
    if s <= 0.0 or r <= 0.0 or p <= 0.0:
        raise errors.HypothesisViolation(f"need s, r, p > 0; got s={s}, r={r}, p={p}")
    lhs_sv, rhs_sv = t_chain_sides(inst.spectra, s, t, r, p)
    return ChainTerms(
        chain_id="t-chain",
        lhs_sv=lhs_sv,
        rhs_sv=rhs_sv,
        status=t_chain_status(params),
        condition_max=condition_max(inst),
    )


def commuting_terms(inst: InstanceSet, variant: str) -> ChainTerms:
    """Commuting-pair chains: ||sum A_i B_i|| <= ||(sum A_i^{1/2} B_i^{1/2})^2||
    <= ||(sum A)(sum B)|| (product) or the symmetrized right side."""
    if variant not in ("product", "symmetrized"):
        raise errors.ConfigError(f"unknown commuting variant {variant!r}")
    if inst.kind != "commuting":
        raise errors.NotCommuting(f"instance kind is {inst.kind!r}, need 'commuting'")
    sp = inst.spectra
    lhs_sv, mid_sv = sp.commuting_sv()
    if variant == "product":
        rhs_sv = singular_values(inst.sum_A() @ inst.sum_B())
    else:
        rhs_sv = sp.sandwich_sv(0.5, 1.0, 1.0)
    return ChainTerms(
        chain_id=f"commuting-{variant}",
        lhs_sv=lhs_sv,
        mid_sv=mid_sv,
        rhs_sv=rhs_sv,
        status="proven",
        condition_max=condition_max(inst),
    )


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
    integer base_seed, a SpectrumLaw, a list of norm labels, a number
    tol_rel and a number condition_cap > 1."""
    errors.require_all(numbers.Integral, [cfg.base_seed],
                       f"base_seed must be an integer, got {cfg.base_seed!r}")
    if not isinstance(cfg.spectrum_law, SpectrumLaw):
        raise errors.ConfigError(f"spectrum_law must be a spectrum law, got {cfg.spectrum_law!r}")
    message = f"norms must be a list of norm labels, got {cfg.norms!r}"
    if not isinstance(cfg.norms, (list, tuple)):
        raise errors.ConfigError(message)
    errors.require_all((str, NormSpec), cfg.norms, message)
    errors.require_all(numbers.Real, [cfg.tol_rel, cfg.condition_cap],
                       "tol_rel and condition_cap must be numbers")
    if not cfg.condition_cap > 1.0:
        raise errors.ConfigError(f"condition_cap must be > 1, got {cfg.condition_cap!r}")
