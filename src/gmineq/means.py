"""Geometric and weighted geometric means of positive definite matrices.

The means are computed by direct evaluation of
A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2} via two nested eigendecompositions;
no iterative algorithms.  PSD-but-not-PD inputs are rejected, not extended
by continuity.
"""

from __future__ import annotations

import numpy as np

from . import errors
from .linalg import (hermitize, matrix_power, polar_unitary, power_from_eig,
                     require_hermitian, require_spd, spd_eig)


def t_geometric_mean(A, B, t: float) -> np.ndarray:
    """A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}, t in [0, 1].

    t = 1/2 is the geometric mean A # B; the endpoints return A and B
    exactly.
    """
    if not 0.0 <= t <= 1.0:
        raise errors.HypothesisViolation(f"t must lie in [0, 1], got {t}")
    A = require_hermitian(A)
    eig_A = spd_eig(A)  # one decomposition for the check and both A^{+-1/2}
    B = require_spd(B)
    if A.shape != B.shape:
        raise errors.DimensionMismatch(f"shape mismatch: {A.shape} vs {B.shape}")
    if t == 0.0:
        return A.copy()
    if t == 1.0:
        return B.copy()
    Ah = power_from_eig(eig_A, 0.5)
    Aih = power_from_eig(eig_A, -0.5)
    inner = matrix_power(hermitize(Aih @ B @ Aih), t)
    return hermitize(Ah @ inner @ Ah)


def geometric_mean(A, B) -> np.ndarray:
    """A # B, the t = 1/2 case."""
    return t_geometric_mean(A, B, 0.5)


def geometric_mean_unitary(A, B) -> np.ndarray:
    """The unitary U with A # B = A^{1/2} U B^{1/2}.

    Computed as A^{-1/2} (A # B) B^{-1/2}, then polar-projected onto the
    unitary group to strip the round-off accumulated by the three
    fractional powers.
    """
    A = require_spd(A)
    B = require_spd(B)
    G = geometric_mean(A, B)
    return polar_unitary(matrix_power(A, -0.5) @ G @ matrix_power(B, -0.5))
