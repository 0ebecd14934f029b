"""Seeded instance generation.

Random matrices are Q diag(lambda) Q* with Q from orthonormalized complex
Gaussians (Haar-like) and eigenvalues drawn from a log-uniform law.
Identical arguments produce bit-identical instances.

Per-task seeds are derived with a splitmix64 mix of (base_seed, index),
so each task's instance depends on its index alone, not on run order.

An instance is made in two steps: `draw_instance` draws its random numbers
from its own seeded stream, and `assemble_instances` turns a stack of such
draws into matrices with one QR call.  `generate_instance` is a stack of
one, and a stack of many equal-shape instances gives each the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import errors
from .blocks import InstanceSet
from .linalg import from_spectrum

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer; a stable 64-bit mixing function."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base_seed: int, index: int) -> int:
    """Stable 64-bit per-task seed from (base_seed, task index)."""
    return splitmix64((base_seed & _MASK64) ^ splitmix64(index & _MASK64))


@dataclass(frozen=True)
class SpectrumLaw:
    """Log-uniform eigenvalue law on [lo, hi]; its log bounds are computed
    once per law, not once per draw."""

    lo: float = 0.1
    hi: float = 10.0

    def __post_init__(self):
        if not (self.lo > 0.0 and self.hi >= self.lo):
            raise errors.InvalidSpectrumLaw(f"need 0 < lo <= hi, got [{self.lo}, {self.hi}]")

    @cached_property
    def _log_bounds(self) -> tuple:
        return np.log(self.lo), np.log(self.hi)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        log_lo, log_hi = self._log_bounds
        return np.exp(rng.uniform(log_lo, log_hi, size=size))

    def to_dict(self) -> dict:
        return {"law": "loguniform", "lo": self.lo, "hi": self.hi}

    @classmethod
    def from_dict(cls, d: dict) -> "SpectrumLaw":
        if d.get("law", "loguniform") != "loguniform":
            raise errors.InvalidSpectrumLaw(f"unknown spectrum law {d.get('law')!r}")
        return cls(lo=float(d["lo"]), hi=float(d["hi"]))


DEFAULT_LAW = SpectrumLaw()


def ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    """A complex Ginibre matrix: real parts drawn first, then imaginary."""
    re, im = rng.standard_normal((2, n, n))
    return (re + 1j * im) / np.sqrt(2.0)


def _haar(G: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from a stack of Ginibre matrices, through
    one stacked QR."""
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return _haar(ginibre(n, rng))


def random_spd(n: int, rng: np.random.Generator, law: SpectrumLaw = DEFAULT_LAW) -> np.ndarray:
    """Random SPD matrix with eigenvalues from the spectrum law."""
    Q = haar_unitary(n, rng)
    return from_spectrum(Q, law.sample(rng, n))


def draw_instance(kind: str, n: int, m: int, seed: int, law: SpectrumLaw = DEFAULT_LAW) -> tuple:
    """The random numbers of one instance, in the order they are drawn:
    Ginibre matrices G (one per matrix, or one per pair for commuting
    instances) and eigenvalues lam (2m, n), A_1's row first, then B_1's."""
    if kind not in ("generic", "commuting"):
        raise errors.ConfigError(f"unknown instance kind {kind!r}")
    if n < 1 or m < 1:
        raise errors.ConfigError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    rng = np.random.default_rng(seed & _MASK64)
    G, lam = [], []
    for _ in range(m):
        if kind == "generic":
            for _ in range(2):
                G.append(ginibre(n, rng))
                lam.append(law.sample(rng, n))
        else:
            G.append(ginibre(n, rng))
            lam.extend(law.sample(rng, n) for _ in range(2))
    return np.stack(G), np.stack(lam)


def assemble_instances(kind: str, G: np.ndarray, lam: np.ndarray) -> tuple:
    """(A, B), each (..., m, n, n), from stacked draws of `draw_instance`;
    every matrix is Q diag(lam) Q* with Q from one stacked QR."""
    Q = _haar(G)
    if kind == "commuting":
        Q = np.repeat(Q, 2, axis=-3)  # A_i and B_i share one eigenbasis
    X = from_spectrum(Q, lam)
    return X[..., 0::2, :, :], X[..., 1::2, :, :]


def generate_instance(
    kind: str,
    n: int,
    m: int,
    seed: int,
    law: SpectrumLaw = DEFAULT_LAW,
) -> InstanceSet:
    """Deterministic instance from (kind, n, m, seed, law).

    generic: all 2m matrices independent.  commuting: A_i and B_i share
    one eigenbasis per pair, so they commute exactly up to round-off.
    """
    A, B = assemble_instances(kind, *draw_instance(kind, n, m, seed, law))
    return InstanceSet(m=m, n=n, A=A, B=B, seed=int(seed), kind=kind)
