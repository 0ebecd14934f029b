"""Dense complex Hermitian linear algebra: eigendecomposition, fractional
powers, singular value decomposition and the positive definiteness check.

Everything here is a pure function of its inputs and safe to call from
concurrent workers.  Matrices are numpy arrays of complex128; results are
re-Hermitized where the exact result is Hermitian, so downstream invariant
checks see symmetric round-off.

The spectral path is stack-aware: `hermitize`, `require_hermitian`,
`hermitian_eig`, `require_pd`, `psd_sv`, `power_from_eig`, `svd` and
`sum_pairs` take arrays of shape (..., n, n), one matrix per leading index,
and run each check (finite entries, Hermitian defect, the zeroing rule,
the PD floor) per matrix; `sum_pairs` is the one ordered sum of a
stack's matrices.  An exponent is a scalar, one value per matrix
of a stack, or an array of per-row exponents with more axes than the
spectrum's leading ones, which broadcasts against the whole stack: the
(P, 1) grid columns of `chains.InstanceSpectra` against the (N, n)
spectra of N stacked matrices give (P, N, n).  A scalar takes the 2-d
code path unchanged.  Per-row exponents
are applied by one array power call (see `power_rows`), and each row gets
bitwise the result that its matrix gets alone at its exponent.
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


def hermitize(M: np.ndarray) -> np.ndarray:
    """Exactly-Hermitian average (M + M*)/2, complex128, the sum halved
    through its float64 view, each real and imaginary part alone.  A
    complex multiply by 0.5 could flip the sign of a zero part through its
    0 * x cross terms, so that a second pass changed it; halved this way,
    hermitize(hermitize(M)) is hermitize(M) bit for bit."""
    H = np.ascontiguousarray(M + M.conj().mT, dtype=np.complex128)
    return (H.view(np.float64) * 0.5).view(np.complex128)


def _any(mask) -> bool:
    """mask.any(), without numpy's reduction call for a single flag."""
    return bool(mask) if mask.ndim == 0 else bool(mask.any())


def require_hermitian(H) -> np.ndarray:
    """H as complex128, after checking that it is a square matrix or stack,
    its entries are finite and every matrix is Hermitian."""
    A = np.asarray(H, dtype=np.complex128)
    if A.ndim < 2 or A.shape[-2] < 1 or A.shape[-1] < 1:
        raise errors.DimensionMismatch(f"expected a matrix or a stack of matrices, got shape {A.shape}")
    if not np.all(np.isfinite(A.view(np.float64))):
        raise errors.NonFiniteInput("matrix contains NaN or Inf entries")
    if A.shape[-2] != A.shape[-1]:
        raise errors.DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    scale = np.abs(A).max(axis=(-2, -1), initial=1.0)
    defect = np.abs(A - A.conj().mT).max(axis=(-2, -1))
    bad = defect > HERMITIAN_RTOL * scale
    if _any(bad):
        raise errors.NotHermitian(
            f"max |H - H*| = {defect[bad].flat[0]:.3e} exceeds {HERMITIAN_RTOL:.1e}"
            f" * {scale[bad].flat[0]:.3e}"
        )
    return A


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order with matching orthonormal columns;
    for a stack, eigenvalues (..., n) and vectors (..., n, n), and indexing
    selects along the leading axes."""

    eigenvalues: np.ndarray  # real, descending
    vectors: np.ndarray      # columns are eigenvectors

    def __getitem__(self, index) -> "EigenDecomposition":
        return EigenDecomposition(self.eigenvalues[index], self.vectors[index])


def from_spectrum(Q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The Hermitian Q diag(lam) Q* of orthonormal columns Q (..., n, n) and
    a spectrum lam (..., n), broadcast over the leading axes."""
    return hermitize((Q * lam[..., None, :]) @ Q.conj().mT)


def hermitian_eig(H) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack, eigenvalues descending."""
    A = require_hermitian(H)
    try:
        w, V = np.linalg.eigh(hermitize(A))
    except np.linalg.LinAlgError as exc:
        raise errors.NonConvergence(str(exc)) from exc
    # eigh returns ascending order; stable flip keeps tie order deterministic
    return EigenDecomposition(eigenvalues=w[..., ::-1].copy(), vectors=V[..., ::-1].copy())


# Exponents at which `a ** x` with a scalar x takes numpy's sqrt, square
# and reciprocal fast paths, which round differently from its power loop.
_SCALAR_FAST_PATHS = (0.5, 2.0, -1.0)


def power_rows(a: np.ndarray, x) -> np.ndarray:
    """a**x along the last axis, for a scalar x or one exponent per row of
    the leading axes; an x with more axes than those broadcasts against
    them (see the module docstring).  Per-row exponents are applied by one
    `np.power` call, and the rows at a scalar fast-path exponent (0.5, 2
    and -1) by a scalar power each, so that every row gets the bytes of
    `a_row ** float(x_row)`, the result one contiguous row gets alone.
    That rests on numpy's array power rounding as its scalar power does at
    every other exponent, which `tests/test_linalg.py` checks on the
    running build."""
    if isinstance(x, (int, float)):
        return a ** float(x)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim >= a.ndim:
        a = np.broadcast_to(a, np.broadcast_shapes(x.shape, a.shape[:-1]) + a.shape[-1:])
    x = np.broadcast_to(x, a.shape[:-1])
    # numpy powers some strided layouts by another routine, which rounds
    # differently: a contiguous base keeps every row on the routine that a
    # contiguous spectrum alone takes
    out = np.power(np.ascontiguousarray(a), x[..., None])
    for fast in _SCALAR_FAST_PATHS:
        rows = x == fast
        if _any(rows):
            out[rows] = a[rows] ** fast
    return out


def _power_spectrum(w: np.ndarray, x, psd: bool = False) -> np.ndarray:
    """Apply lambda -> lambda**x after the zeroing rule (see CLIP_FLOOR), to
    the last axis of w, x as in `power_rows`.  A negative beyond the floor
    is allowed only for an integer x on a matrix not declared PSD; a
    negative x needs every eigenvalue above the PD floor.  The error names
    the smallest eigenvalue of a failing row."""
    lam_max = w.max(axis=-1, initial=0.0)
    wc = np.where((w < 0.0) & (w >= -CLIP_FLOOR * lam_max[..., None]), 0.0, w)
    below = wc < 0.0
    inverse = np.less(x, 0.0)
    if below.any() or _any(inverse):
        least, floor = wc.min(axis=-1), PD_FLOOR * lam_max
        negative = below.any(axis=-1)
        not_psd = negative & ~((np.remainder(x, 1.0) == 0.0) & (not psd))
        if _any(not_psd):
            raise errors.NotPositiveSemidefinite(
                f"min eigenvalue {np.broadcast_to(least, not_psd.shape)[not_psd].min():.3e} "
                "is negative beyond the clip floor"
            )
        singular = inverse & ~negative & (least <= floor)
        if _any(singular):
            least, floor = (np.broadcast_to(v, singular.shape)[singular].flat[0]
                            for v in (least, floor))
            raise errors.SingularForNegativePower(
                f"min eigenvalue {least:.3e} at or below PD floor {floor:.3e}"
            )
    return power_rows(wc, x)


def psd_sv(H, x=1.0) -> np.ndarray:
    """Singular values of H**x, for x >= 0 and H Hermitian PSD by
    construction: its descending eigenvalues, after the zeroing rule, to
    the power x.  `hermitian_eig` checks H's Hermitian defect and
    Hermitizes it before decomposing."""
    return _power_spectrum(hermitian_eig(H).eigenvalues, x, psd=True)


def power_from_eig(eig: EigenDecomposition, x) -> np.ndarray:
    """V diag(lambda_i**x) V* from an eigendecomposition with nonnegative
    spectrum, after the zeroing rule, x as in `power_rows`; x < 0
    additionally requires the spectrum to clear the PD floor."""
    return from_spectrum(eig.vectors, _power_spectrum(eig.eigenvalues, x))


def matrix_power(H, x: float) -> np.ndarray:
    """H**x for Hermitian H with nonnegative spectrum (see power_from_eig)."""
    return power_from_eig(hermitian_eig(H), x)


def svd(M: np.ndarray) -> tuple:
    """(U, sigma, V*), sigma descending, of a matrix or each of a stack."""
    try:
        return np.linalg.svd(M)
    except np.linalg.LinAlgError as exc:
        raise errors.NonConvergence(str(exc)) from exc


def require_pd(eig: EigenDecomposition) -> EigenDecomposition:
    """eig, raising SingularInput unless every matrix it decomposes is
    positive definite: its smallest eigenvalue must exceed
    PD_FLOOR * max(1, largest)."""
    lo, hi = eig.eigenvalues[..., -1], eig.eigenvalues[..., 0]
    bad = ~(lo > PD_FLOOR * np.maximum(1.0, hi))
    if _any(bad):
        raise errors.SingularInput(
            f"matrix not positive definite: min eigenvalue {lo[bad].flat[0]:.3e}")
    return eig


def sum_pairs(X: np.ndarray) -> np.ndarray:
    """hermitize(sum_i X_i) over axis -3, starting from zeros and added in
    order as Python's sum: the one ordered pair sum, of a lemma's stack and
    of each instance's zero-padded pairs in `chains.InstanceSpectra`."""
    total = 0
    for i in range(X.shape[-3]):
        total = total + X[..., i, :, :]
    return hermitize(total)
