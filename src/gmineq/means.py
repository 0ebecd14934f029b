"""Geometric and weighted geometric means of positive definite matrices.

Every mean is computed by one formula from the eigendecompositions of A
and B and one singular value decomposition: with
C = B^{s/2} A^{-s/2} = U diag(sigma) V*,

    A^s #_t B^s = A^{s/2} V diag(sigma^{2t}) V* A^{s/2}.

The powers of sigma keep the accuracy that the eigenvalues of C* C lose;
no iterative algorithms.  PSD-but-not-PD inputs are rejected, not
extended by continuity.  `mean_factor` is stack-aware like `linalg`: it
takes stacked decompositions and one (s, t) per matrix.
"""

from __future__ import annotations

import numpy as np

from . import errors
from .linalg import (EigenDecomposition, hermitize, matrix_power, polar_unitary,
                     power_from_eig, power_rows, require_hermitian, spd_eig, svd)


def mean_factor(eig_A: EigenDecomposition, eig_B: EigenDecomposition, s, t) -> np.ndarray:
    """F = A^{s/2} V diag(sigma^t), so that F F* = A^s #_t B^s.  Only
    A^{-s/2} is inverted, so only A must clear the PD floor.  s and t are
    scalars or one value per matrix of the stacks."""
    C = power_from_eig(eig_B, s / 2.0) @ power_from_eig(eig_A, -s / 2.0)
    _, sigma, vh = svd(C)
    return power_from_eig(eig_A, s / 2.0) @ (vh.conj().mT * power_rows(sigma, t)[..., None, :])


def t_geometric_mean(A, B, t: float) -> np.ndarray:
    """A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}, t in [0, 1].

    t = 1/2 is the geometric mean A # B; the endpoints return A and B
    exactly.
    """
    if not 0.0 <= t <= 1.0:
        raise errors.HypothesisViolation(f"t must lie in [0, 1], got {t}")
    A, B = require_hermitian(A), require_hermitian(B)
    eig_A, eig_B = spd_eig(A), spd_eig(B)
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


def geometric_mean_unitary(A, B) -> np.ndarray:
    """The unitary U with A # B = A^{1/2} U B^{1/2}.

    Computed as A^{-1/2} (A # B) B^{-1/2}, then polar-projected onto the
    unitary group to strip the round-off accumulated by the three
    fractional powers.
    """
    G = geometric_mean(A, B)  # validates both operands
    return polar_unitary(matrix_power(A, -0.5) @ G @ matrix_power(B, -0.5))
