"""One experiment instance (`InstanceSet`), the block matrix Z with blocks
B_i^{1/2} (sum_k A_k) B_j^{1/2}, its rank-revealing factorizations, and
the reduced n x n core carrying its nonzero spectrum.  Z and the core
read the instance's decompositions and sums from its spectra cache, the
`chains.InstanceSpectra` stack of that one instance.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import errors
from .linalg import hermitian_eig, hermitize, power_from_eig


@dataclass(frozen=True, eq=False)
class InstanceSet:
    """One experiment instance: m pairs of n x n positive definite matrices.

    kind is 'generic' or 'commuting'; commuting instances satisfy
    A_i B_i = B_i A_i pairwise (shared eigenbasis by construction).

    Immutable: A and B are read-only complex128 stacks (m, n, n), copies of
    what it was given, so neither the spectra cache `spectra` nor a passed
    `validate` can go stale.  A non-integer m or n, a pair count or matrix
    size other than m and n, or ragged input is refused when it is built.
    Its `spectra` is the stack of one instance (`chains.InstanceSpectra`),
    the layout on which the sweep and the hunt evaluate many.
    """

    m: int
    n: int
    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    seed: int = 0
    kind: str = "generic"

    def __post_init__(self):
        errors.require_all(numbers.Integral, [self.m, self.n],
                           f"m and n must be integers, got m={self.m!r}, n={self.n!r}")
        for name in ("A", "B"):
            try:
                X = np.array(getattr(self, name), dtype=np.complex128, order="C")
            except ValueError as exc:  # ragged nesting
                raise errors.DimensionMismatch(f"{name} is not a stack of matrices: {exc}") from None
            if X.shape != (self.m, self.n, self.n):
                raise errors.DimensionMismatch(
                    f"expected {name} of {self.m} {self.n}x{self.n} matrices, got shape {X.shape}")
            X.flags.writeable = False
            object.__setattr__(self, name, X)

    @cached_property
    def spectra(self):
        """The spectra cache, built on first use: the
        `chains.InstanceSpectra` of a stack of this one instance."""
        from .chains import InstanceSpectra  # chains imports this module

        return InstanceSpectra(self.A, self.B, [self.m])

    def validate(self) -> "InstanceSet":
        """self, after checking its kind, then (once: `InstanceSpectra.check`
        is memoized) every matrix's entries, Hermitian defect and PD floor
        and, for a commuting instance, the commutation of every pair."""
        if self.kind not in ("generic", "commuting"):
            raise errors.ConfigError(f"unknown instance kind {self.kind!r}")
        self.spectra.check(self.kind == "commuting")
        return self


def build_Z(inst: InstanceSet) -> np.ndarray:
    """The mn x mn Hermitian PSD block matrix with blocks
    B_i^{1/2} (sum_k A_k) B_j^{1/2}."""
    m, n = inst.m, inst.n
    sA = inst.spectra.sums[0][0]
    Bh = power_from_eig(inst.spectra.eig_B, 0.5)
    Z = np.empty((m * n, m * n), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            Z[i * n:(i + 1) * n, j * n:(j + 1) * n] = Bh[i] @ sA @ Bh[j]
    return hermitize(Z)


def build_Y(inst: InstanceSet) -> np.ndarray:
    """The mn x mn factor with Y Y* = Z; block (i, j) is B_i^{1/2} A_j^{1/2}."""
    m, n = inst.m, inst.n
    Ah = power_from_eig(inst.spectra.eig_A, 0.5)
    Bh = power_from_eig(inst.spectra.eig_B, 0.5)
    Y = np.empty((m * n, m * n), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            Y[i * n:(i + 1) * n, j * n:(j + 1) * n] = Bh[i] @ Ah[j]
    return Y


def reduced_core(inst: InstanceSet) -> np.ndarray:
    """(sum A)^{1/2} (sum B) (sum A)^{1/2}: the n x n SPD matrix unitarily
    equivalent to Z's nonzero part."""
    sAh = power_from_eig(inst.spectra.eig_sum_A[0], 0.5)
    return hermitize(sAh @ inst.spectra.sums[1][0] @ sAh)


@dataclass(frozen=True)
class EquivalenceReport:
    factorization_defect: float
    spectrum_defect: float
    passed: bool


def verify_equivalences(inst: InstanceSet, tol: float = 1e-10) -> EquivalenceReport:
    """Check Z = Y Y* and spec(Z) = spec(reduced core) union {0}."""
    Z = build_Z(inst)
    Y = build_Y(inst)
    z_norm = np.linalg.norm(Z)
    fdef = float(np.linalg.norm(Z - Y @ Y.conj().T) / max(z_norm, np.finfo(float).tiny))

    wZ = hermitian_eig(Z).eigenvalues
    w_core = hermitian_eig(reduced_core(inst)).eigenvalues
    padded = np.concatenate([w_core, np.zeros((inst.m - 1) * inst.n)])
    padded = np.sort(padded)[::-1]
    lam_max = max(float(wZ[0]), np.finfo(float).tiny)
    sdef = float(np.abs(wZ - padded).max() / lam_max)

    return EquivalenceReport(
        factorization_defect=fdef,
        spectrum_defect=sdef,
        passed=fdef <= tol and sdef <= tol,
    )
