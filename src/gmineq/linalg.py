"""Dense complex Hermitian linear algebra: eigendecomposition, fractional
powers, matrix absolute value, polar factor, definiteness tests.

Everything here is a pure function of its inputs and safe to call from
concurrent workers.  Matrices are numpy arrays of complex128; results are
re-Hermitized where the exact result is Hermitian, so downstream invariant
checks see symmetric round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors

# Relative tolerance for the Hermitian invariant check.
HERMITIAN_RTOL = 1e-12
# Eigenvalues below PD_FLOOR * lambda_max mean "not safely invertible".
PD_FLOOR = 1e-10
# The one zeroing rule: a negative eigenvalue within CLIP_FLOOR * lambda_max
# of zero is eigensolver round-off and becomes 0.  No positive eigenvalue is
# ever changed; a negative beyond the floor is not round-off.
CLIP_FLOOR = 1e-12


def as_matrix(M) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise errors.DimensionMismatch(f"expected a 2-d matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.view(np.float64))):
        raise ValueError("matrix contains NaN or Inf entries")
    return A


def require_square(M) -> np.ndarray:
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise errors.DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    return A


def hermitize(M: np.ndarray) -> np.ndarray:
    """Exactly-Hermitian average (M + M*)/2."""
    return 0.5 * (M + M.conj().T)


def require_hermitian(H, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Validate the Hermitian invariant and return H unchanged."""
    A = require_square(H)
    scale = np.abs(A).max()
    defect = np.abs(A - A.conj().T).max()
    if defect > rtol * max(scale, 1.0):
        raise errors.NotHermitian(
            f"max |H - H*| = {defect:.3e} exceeds {rtol:.1e} * {max(scale, 1.0):.3e}"
        )
    return A


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order with matching orthonormal columns."""

    eigenvalues: np.ndarray  # real, descending
    vectors: np.ndarray      # columns are eigenvectors

    def reconstruct(self) -> np.ndarray:
        V = self.vectors
        return (V * self.eigenvalues) @ V.conj().T


def hermitian_eig(H, rtol: float = HERMITIAN_RTOL) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    A = require_hermitian(H, rtol)
    try:
        w, V = np.linalg.eigh(hermitize(A))
    except np.linalg.LinAlgError as exc:
        raise errors.NonConvergence(str(exc)) from exc
    # eigh returns ascending order; stable flip keeps tie order deterministic
    return EigenDecomposition(eigenvalues=w[::-1].copy(), vectors=V[:, ::-1].copy())


def _power_spectrum(w: np.ndarray, x: float, psd: bool = False) -> np.ndarray:
    """Apply lambda -> lambda**x after the zeroing rule (see CLIP_FLOOR).
    A negative beyond the floor is allowed only for an integer x on a
    matrix not declared PSD."""
    lam_max = max(float(w.max(initial=0.0)), 0.0)
    wc = np.where((w < 0.0) & (w >= -CLIP_FLOOR * lam_max), 0.0, w)
    if np.any(wc < 0.0):
        if float(x).is_integer() and not psd:
            return wc ** x
        raise errors.NotPositiveSemidefinite(
            f"min eigenvalue {wc.min():.3e} is negative beyond the clip floor"
        )
    if x < 0.0:
        floor = PD_FLOOR * lam_max
        if float(wc.min()) <= floor:
            raise errors.SingularForNegativePower(
                f"min eigenvalue {wc.min():.3e} at or below PD floor {floor:.3e}"
            )
    with np.errstate(divide="ignore"):
        return wc ** x


def psd_sv(H, x: float = 1.0) -> np.ndarray:
    """Singular values of H**x, for x >= 0 and H Hermitian PSD by
    construction: its descending eigenvalues, after the zeroing rule, to
    the power x."""
    return _power_spectrum(hermitian_eig(hermitize(H)).eigenvalues, float(x), psd=True)


def power_from_eig(eig: EigenDecomposition, x: float) -> np.ndarray:
    """V diag(lambda_i**x) V* from an eigendecomposition with nonnegative
    spectrum, after the zeroing rule; x < 0 additionally requires the
    spectrum to clear the PD floor.
    """
    wx = _power_spectrum(eig.eigenvalues, float(x))
    return hermitize((eig.vectors * wx) @ eig.vectors.conj().T)


def matrix_power(H, x: float, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """H**x for Hermitian H with nonnegative spectrum (see power_from_eig)."""
    return power_from_eig(hermitian_eig(H, rtol), x)


def matrix_abs(M) -> np.ndarray:
    """|M| = (M* M)**(1/2) for square M."""
    A = require_square(M)
    return matrix_power(hermitize(A.conj().T @ A), 0.5)


def svd(M: np.ndarray) -> tuple:
    """(U, sigma, V*), sigma descending."""
    try:
        return np.linalg.svd(M)
    except np.linalg.LinAlgError as exc:
        raise errors.NonConvergence(str(exc)) from exc


def polar_unitary(M) -> np.ndarray:
    """Unitary factor U of the polar decomposition M = U |M|.

    Requires the smallest singular value to clear the PD floor relative
    to the largest.
    """
    u, s, vh = svd(require_square(M))
    if s[-1] <= PD_FLOOR * max(s[0], 0.0) or s[0] == 0.0:
        raise errors.SingularInput(
            f"smallest singular value {s[-1]:.3e} below PD floor of largest {s[0]:.3e}"
        )
    return u @ vh


@dataclass(frozen=True)
class DefinitenessReport:
    positive_definite: bool
    min_eigenvalue: float
    max_eigenvalue: float


def _definiteness(w: np.ndarray, tol: float) -> DefinitenessReport:
    lo, hi = float(w[-1]), float(w[0])
    return DefinitenessReport(
        positive_definite=lo > tol * max(1.0, hi),
        min_eigenvalue=lo,
        max_eigenvalue=hi,
    )


def is_positive_definite(H, tol: float = PD_FLOOR) -> DefinitenessReport:
    """True iff min eigenvalue > tol * max(1, max eigenvalue)."""
    return _definiteness(hermitian_eig(H).eigenvalues, tol)


def spd_eig(H, tol: float = PD_FLOOR) -> EigenDecomposition:
    """hermitian_eig(H), raising SingularInput unless H is positive definite."""
    eig = hermitian_eig(H)
    rep = _definiteness(eig.eigenvalues, tol)
    if not rep.positive_definite:
        raise errors.SingularInput(
            f"matrix not positive definite: min eigenvalue {rep.min_eigenvalue:.3e}"
        )
    return eig


def require_spd(H, tol: float = PD_FLOOR) -> np.ndarray:
    A = require_hermitian(H)
    spd_eig(A, tol)
    return A


def condition_number(H) -> float:
    """lambda_max / lambda_min of an SPD matrix."""
    w = hermitian_eig(H).eigenvalues
    lo, hi = float(w[-1]), float(w[0])
    if lo <= 0.0:
        return np.inf
    return hi / lo
