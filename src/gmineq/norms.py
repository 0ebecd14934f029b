"""Unitarily invariant norms: singular values, Ky Fan k-norms, Schatten
p-norms, and the Fan-dominance comparator.  `norm_values` is the one
kernel that turns a spectrum into norm values.

Ordering in every unitarily invariant norm is equivalent to ordering in
every Ky Fan norm, so `ky_fan_dominance` is the operational stand-in for
"for all unitarily invariant norms".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors

_NAMED = ("trace", "operator", "frobenius")


@dataclass(frozen=True)
class NormSpec:
    """Selector for one unitarily invariant norm."""

    variant: str           # kyfan | schatten | trace | operator | frobenius
    k: int | None = None   # kyfan only
    p: float | None = None  # schatten only; math.inf allowed

    def __post_init__(self):
        if self.variant == "kyfan":
            if self.k is None or self.k < 1:
                raise errors.InvalidSpec(f"Ky Fan k must be >= 1, got {self.k}")
        elif self.variant == "schatten":
            if self.p is None or not self.p >= 1.0:
                raise errors.InvalidSpec(f"Schatten p must be >= 1, got {self.p}")
        elif self.variant not in _NAMED:
            raise errors.InvalidSpec(f"unknown norm variant {self.variant!r}")

    @classmethod
    def ky_fan(cls, k: int) -> "NormSpec":
        return cls("kyfan", k=int(k))

    @classmethod
    def schatten(cls, p: float) -> "NormSpec":
        return cls("schatten", p=float(p))

    @classmethod
    def parse(cls, text: str) -> "NormSpec":
        """Parse labels like 'kyfan:3', 'schatten:2', 'schatten:inf', 'trace'."""
        text = text.strip().lower()
        if text in _NAMED:
            return cls(text)
        head, _, arg = text.partition(":")
        try:
            if head == "kyfan":
                return cls.ky_fan(int(arg))
            if head == "schatten":
                return cls.schatten(float(arg))
        except ValueError:
            pass
        raise errors.InvalidSpec(f"cannot parse norm spec {text!r}")

    def to_record(self) -> dict:
        """The report-file form of this norm; Schatten p = inf is "inf"."""
        if self.variant == "kyfan":
            return {"variant": "kyfan", "k": self.k}
        if self.variant == "schatten":
            return {"variant": "schatten", "p": "inf" if math.isinf(self.p) else float(self.p)}
        return {"variant": self.variant}

    @classmethod
    def from_record(cls, rec: dict) -> "NormSpec":
        """Inverse of `to_record`; anything else raises InvalidSpec."""
        try:
            if rec["variant"] == "kyfan":
                return cls.ky_fan(rec["k"])
            if rec["variant"] == "schatten":
                return cls.schatten(math.inf if rec["p"] == "inf" else rec["p"])
            return cls(rec["variant"])
        except (KeyError, TypeError, ValueError):
            raise errors.InvalidSpec(f"not a norm record: {rec!r}") from None


def singular_values(M) -> np.ndarray:
    """Descending singular values of M, or of each matrix of a stack."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim < 2:
        raise errors.DimensionMismatch(f"expected a matrix or a stack of matrices, got shape {A.shape}")
    try:
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise errors.NonConvergence(str(exc)) from exc


def norm_values(sv, specs) -> np.ndarray:
    """Every norm of `specs` on a descending singular value list, or on
    each row of a stack of them (..., d): an array (..., len(specs)).

    This is the one place a spectrum becomes norm values.  Terms of
    different sizes are compared under the direct-sum convention
    ||A|| = ||A (+) 0||: Ky Fan k is the cumulative sum of the zero-padded
    spectrum at k - 1 (the padding adds nothing, so a k past the list
    reads the last sum), and trace is the full cumulative sum.  Every
    reduction runs along each row alone and each Schatten root is a scalar
    power, so a row of a stack gets the bytes it gets alone.
    """
    sv = np.asarray(sv, dtype=np.float64)
    size = sv.shape[-1]
    out = np.empty(sv.shape[:-1] + (len(specs),))
    sums = None
    for j, spec in enumerate(specs):
        if spec.variant in ("kyfan", "trace"):
            sums = np.cumsum(sv, axis=-1) if sums is None else sums
            k = size if spec.variant == "trace" else min(spec.k, size)
            out[..., j] = sums[..., k - 1] if k else 0.0
        elif spec.variant == "operator" or spec.p == math.inf:
            out[..., j] = sv[..., 0] if size else 0.0
        elif spec.variant == "frobenius":
            out[..., j] = np.sqrt((sv ** 2).sum(axis=-1))
        else:
            power = (sv ** spec.p).sum(axis=-1)
            roots = [v ** (1.0 / spec.p) for v in power.ravel().tolist()]
            out[..., j] = np.reshape(roots, power.shape)
    return out


def norm_from_sv(sv: np.ndarray, spec: NormSpec, pad: bool = False):
    """One norm of `norm_values`: a float, or one value per row for a stack
    of lists (..., d).  Without pad, a Ky Fan k beyond the list length is
    an error rather than a direct-sum value."""
    size = np.shape(sv)[-1]
    if spec.variant == "kyfan" and spec.k > size and not pad:
        raise errors.InvalidSpec(f"Ky Fan k={spec.k} out of range for {size} singular values")
    value = norm_values(sv, [spec])[..., 0]
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class DominanceReport:
    dominated: bool
    worst_k: int
    worst_margin: float


def ky_fan_dominance(X, Y) -> DominanceReport:
    """Check KyFan_k(X) <= KyFan_k(Y) for every k = 1..n, to within
    1e-10 * max(1, KyFan_n(Y)); for stacks, of each X[i] against Y[i].

    By the Fan dominance principle this decides ordering in every
    unitarily invariant norm.  worst_margin is the minimum over k of
    KyFan_k(Y) - KyFan_k(X), unscaled, of the first pair that fails, or
    of the first pair if none does; worst_k is where it is reached.
    """
    sx = singular_values(X)
    sy = singular_values(Y)
    if sx.shape != sy.shape:
        raise errors.DimensionMismatch(f"size mismatch: {sx.shape} vs {sy.shape}")
    specs = [NormSpec.ky_fan(k) for k in range(1, sy.shape[-1] + 1)]
    fan_y = norm_values(sy, specs)
    margins = fan_y - norm_values(sx, specs)
    ok = margins.min(axis=-1) >= -1e-10 * np.maximum(1.0, fan_y[..., -1])
    pair = margins[np.unravel_index(np.argmin(ok), ok.shape)]
    worst = int(np.argmin(pair))
    return DominanceReport(dominated=bool(ok.all()), worst_k=worst + 1,
                           worst_margin=float(pair[worst]))
