"""Extended-precision re-evaluation of weighted-chain margins via mpmath.

Used to confirm or dismiss violation candidates before they surface in a
summary: a conjectured inequality must not be "refuted" by double-precision
rounding.  Slow; intended for single small instances only.  mpmath is
imported by the first recheck (`t_chain_margin`), not with the package:
sweeps, `verify` and hunts without a candidate never load it.
"""

from __future__ import annotations

import math

import numpy as np

from .chains import ChainParams
from .norms import NormSpec

DEFAULT_DPS = 60
mp = None  # the mpmath module, bound by the first `t_chain_margin` call


def _to_mp(M) -> mp.matrix:
    A = np.asarray(M, dtype=np.complex128)
    out = mp.matrix(A.shape[0], A.shape[1])
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            out[i, j] = mp.mpc(A[i, j].real, A[i, j].imag)
    return out


def _hermitize(M: mp.matrix) -> mp.matrix:
    return (M + M.H) * mp.mpf(0.5)


def _power(H: mp.matrix, x) -> mp.matrix:
    E, Q = mp.eighe(_hermitize(H))
    n = H.rows
    D = mp.zeros(n, n)
    for i in range(n):
        lam = E[i]
        if lam < 0:
            lam = mp.mpf(0)  # tiny negatives from round-off
        D[i, i] = lam ** mp.mpf(x)
    return _hermitize(Q * D * Q.H)


def _psd_eigenvalues(H: mp.matrix) -> list:
    E, _ = mp.eighe(_hermitize(H))
    vals = [max(E[i], mp.mpf(0)) for i in range(H.rows)]
    return sorted(vals, reverse=True)


def _t_mean(A: mp.matrix, B: mp.matrix, t) -> mp.matrix:
    Ah = _power(A, mp.mpf(0.5))
    Aih = _power(A, mp.mpf(-0.5))
    return _hermitize(Ah * _power(_hermitize(Aih * B * Aih), t) * Ah)


def _norm_from_vals(vals: list, spec: NormSpec):
    if spec.variant == "kyfan":
        return mp.fsum(vals[: spec.k])
    if spec.variant == "schatten":
        if math.isinf(spec.p):
            return vals[0] if vals else mp.mpf(0)
        p = mp.mpf(spec.p)
        return mp.fsum(v ** p for v in vals) ** (1 / p)
    if spec.variant == "trace":
        return mp.fsum(vals)
    if spec.variant == "operator":
        return vals[0] if vals else mp.mpf(0)
    return mp.sqrt(mp.fsum(v ** 2 for v in vals))


def t_chain_margin(A_list, B_list, params: ChainParams, norm: NormSpec) -> float:
    """Normalized margin (rhs - lhs) / max(1, rhs) of the weighted chain,
    computed at DEFAULT_DPS decimal digits."""
    global mp
    import mpmath as mp

    with mp.workdps(DEFAULT_DPS):
        s, r, p, t = (mp.mpf(params.s), mp.mpf(params.r), mp.mpf(params.p), mp.mpf(params.t))
        As = [_to_mp(X) for X in A_list]
        Bs = [_to_mp(X) for X in B_list]
        n = As[0].rows

        lhs = mp.zeros(n, n)
        for Ai, Bi in zip(As, Bs):
            G = _t_mean(_power(Ai, s), _power(Bi, s), t)
            lhs = lhs + _power(G, r)
        lhs_vals = _psd_eigenvalues(_hermitize(lhs))

        sA = mp.zeros(n, n)
        sB = mp.zeros(n, n)
        for Ai in As:
            sA = sA + Ai
        for Bi in Bs:
            sB = sB + Bi
        left = _power(_hermitize(sA), (1 - t) * s * r * p / 2)
        inner = _hermitize(left * _power(_hermitize(sB), t * s * r * p) * left)
        rhs_vals = [v ** (1 / p) for v in _psd_eigenvalues(inner)]

        lhs_n = _norm_from_vals(lhs_vals, norm)
        rhs_n = _norm_from_vals(rhs_vals, norm)
        scale = max(mp.mpf(1), rhs_n)
        return float((rhs_n - lhs_n) / scale)
