"""Geometric and weighted geometric means of positive definite matrices.

Every mean is computed by one formula from the eigendecompositions of A
and B and one singular value decomposition: with
C = B^{s/2} A^{-s/2} = W diag(sigma) V*,

    A^s #_t B^s = A^{s/2} V diag(sigma^{2t}) V* A^{s/2},

and the unitary U with A^s # B^s = A^{s/2} U B^{s/2} is V W*.  The powers
of sigma keep the accuracy that the eigenvalues of C* C lose; no
iterative algorithms.  PSD-but-not-PD inputs are rejected, not extended
by continuity.  `mean_factor` and `mean_unitary` are stack-aware like
`linalg`: they take stacked decompositions, `mean_factor` with one (s, t)
per matrix, or with (s, t) grid columns of shape (P, 1) that broadcast
against the decompositions of a whole stack of pairs (see
`chains.InstanceSpectra`).
"""

from __future__ import annotations

import numpy as np

from . import errors
from .linalg import (EigenDecomposition, hermitian_eig, hermitize, power_from_eig, power_rows,
                     require_hermitian, require_pd, svd)


def _ratio_svd(eig_A: EigenDecomposition, eig_B: EigenDecomposition, s) -> tuple:
    """(W, sigma, V*) of C = B^{s/2} A^{-s/2}.  Only A^{-s/2} is inverted,
    so only A must clear the PD floor."""
    return svd(power_from_eig(eig_B, s / 2.0) @ power_from_eig(eig_A, -s / 2.0))


def mean_factor(eig_A: EigenDecomposition, eig_B: EigenDecomposition, s, t) -> np.ndarray:
    """F = A^{s/2} V diag(sigma^t), so that F F* = A^s #_t B^s.  s and t
    are scalars or one value per matrix of the stacks."""
    _, sigma, vh = _ratio_svd(eig_A, eig_B, s)
    return power_from_eig(eig_A, s / 2.0) @ (vh.conj().mT * power_rows(sigma, t)[..., None, :])


def mean_unitary(eig_A: EigenDecomposition, eig_B: EigenDecomposition, s) -> tuple:
    """(U, F): the unitary U = V W* and the factor F of t = 1/2, with
    A^{s/2} U B^{s/2} = F F* = A^s # B^s.  Since W* B^{s/2} =
    diag(sigma) V* A^{s/2}, the product is A^{s/2} V diag(sigma) V* A^{s/2}
    exactly; U needs no inverse of B and no polar projection."""
    W, sigma, vh = _ratio_svd(eig_A, eig_B, s)
    V = vh.conj().mT
    F = power_from_eig(eig_A, s / 2.0) @ (V * power_rows(sigma, 0.5)[..., None, :])
    return V @ W.conj().mT, F


def t_geometric_mean(A, B, t: float) -> np.ndarray:
    """A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}, t in [0, 1].

    t = 1/2 is the geometric mean A # B; the endpoints return A and B
    exactly.
    """
    if not 0.0 <= t <= 1.0:
        raise errors.HypothesisViolation(f"t must lie in [0, 1], got {t}")
    A, B = require_hermitian(A), require_hermitian(B)
    eig_A, eig_B = require_pd(hermitian_eig(A)), require_pd(hermitian_eig(B))
    if A.shape != B.shape:
        raise errors.DimensionMismatch(f"shape mismatch: {A.shape} vs {B.shape}")
    if t == 0.0:
        return A.copy()
    if t == 1.0:
        return B.copy()
    F = mean_factor(eig_A, eig_B, 1.0, t)
    return hermitize(F @ F.conj().T)


def geometric_mean(A, B) -> np.ndarray:
    """A # B, the t = 1/2 case."""
    return t_geometric_mean(A, B, 0.5)
