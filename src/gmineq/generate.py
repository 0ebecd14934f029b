"""Seeded instance generation from counter-based words.

Random matrices are Q diag(lambda) Q* with Q from orthonormalized complex
Gaussians (Haar) and eigenvalues drawn from a log-uniform law.  Identical
arguments produce bit-identical instances.

Per-task seeds are derived with a splitmix64 mix of (base_seed, index),
so each task's instance depends on its index alone, not on run order.

Every random number is a counter-based word, in the style of Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3" (SC 2011): a stream is
a 64-bit key, and its word j is `derive_seed(key, j)`.  A uniform is the
word's top 53 bits over 2**53, and a complex normal is Box-Muller of two
uniforms u, v, sqrt(-log(1 - u)) exp(2 pi i v), whose real and imaginary
parts, times sqrt(2), are two standard normals.  A stream has no state:
`Words` hands out the next words of K streams at once, so a stack of K
instances computes its whole (K, W) block of words with one set of array
operations, and every instance gets the bytes it gets alone.  Each
purpose tags its key, so that no two purposes read one stream: the
instance of kind `kind` from seed s reads the stream of key
s ^ KIND_TAGS[kind], so a generic and a commuting instance of one seed
share no matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .blocks import InstanceSet
from .linalg import from_spectrum

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# The tag of each instance kind's stream keys.
KIND_TAGS = {"generic": 0x47454E52, "commuting": 0x434F4D4D}


def splitmix64(x):
    """The splitmix64 finalizer, of an int or elementwise of a uint64 array."""
    z = np.array(x & _MASK64, dtype=np.uint64, ndmin=1) + _GOLDEN
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z ^= z >> 31
    return z if isinstance(x, np.ndarray) else int(z[0])


def derive_seed(base_seed, index):
    """Stable 64-bit per-task seed from (base_seed, task index), also of uint64 arrays."""
    return splitmix64((base_seed & _MASK64) ^ splitmix64(index & _MASK64))


class Words:
    """A cursor over the streams of K keys, each key a seed xored with a
    purpose's tag: `take(count)` returns the next `count` words of every
    stream, (K, count) uint64, word j of stream k being
    `derive_seed(keys[k], j)`."""

    def __init__(self, seeds, tag: int = 0):
        self.keys = (np.array(seeds, dtype=np.uint64, ndmin=1) ^ np.uint64(tag))[:, None]
        self.used = 0

    def take(self, count: int) -> np.ndarray:
        start, self.used = self.used, self.used + count
        return derive_seed(self.keys, np.arange(start, self.used, dtype=np.uint64))


def uniforms(words: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1): each word's top 53 bits over 2**53."""
    return (words >> 11) * 2.0 ** -53


def complex_normals(words: np.ndarray) -> np.ndarray:
    """(..., k) complex normals with E|z|^2 = 1 from (..., 2k) words, z_i
    Box-Muller of the uniforms u, v of words 2i and 2i + 1:
    sqrt(-log(1 - u)) exp(2 pi i v), the log never of 0."""
    u = uniforms(words)
    return np.sqrt(-np.log(1.0 - u[..., 0::2])) * np.exp(2j * np.pi * u[..., 1::2])


def normals(words: np.ndarray) -> np.ndarray:
    """(..., 2k) standard normals from (..., 2k) words: sqrt(2) times the
    real and imaginary parts of each complex normal."""
    return (math.sqrt(2.0) * complex_normals(words)).view(np.float64)


@dataclass(frozen=True)
class SpectrumLaw:
    """Log-uniform eigenvalue law on [lo, hi]."""

    lo: float = 0.1
    hi: float = 10.0

    def __post_init__(self):
        if not (self.lo > 0.0 and self.lo <= self.hi < math.inf):
            raise errors.InvalidSpectrumLaw(f"need finite 0 < lo <= hi, got [{self.lo}, {self.hi}]")

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Eigenvalues of the law from uniforms u on [0, 1), elementwise."""
        log_lo, log_hi = np.log(self.lo), np.log(self.hi)
        return np.exp(log_lo + (log_hi - log_lo) * u)

    @classmethod
    def from_dict(cls, d: dict) -> "SpectrumLaw":
        if d.get("law", "loguniform") != "loguniform":
            raise errors.InvalidSpectrumLaw(f"unknown spectrum law {d.get('law')!r}")
        return cls(lo=float(d["lo"]), hi=float(d["hi"]))


DEFAULT_LAW = SpectrumLaw()


def _draw(words: Words, n: int, count: int, law: SpectrumLaw = DEFAULT_LAW, rows: int = 1) -> tuple:
    """(G (K, count, n, n), lam (K, count * rows, n)) from the next words of
    every stream: `count` complex Ginibre matrices (2 n^2 words each), then
    `count * rows` rows of n eigenvalues of the law (a word each), all
    from one `take`."""
    ginibre = 2 * n * n * count
    block = words.take(ginibre + count * rows * n)
    K = len(block)
    G = complex_normals(block[:, :ginibre].reshape(K, count, 2 * n * n)).reshape(K, count, n, n)
    return G, law.sample(uniforms(block[:, ginibre:])).reshape(K, count * rows, n)


def ginibre_draws(words: Words, n: int, count: int = 1) -> np.ndarray:
    """(K, count, n, n): `count` complex Ginibre matrices per stream."""
    return _draw(words, n, count, rows=0)[0]


def haar(G: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from a stack of Ginibre matrices, through
    one stacked QR."""
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix drawn
    from the stream of key `seed`."""
    return haar(ginibre_draws(Words(seed & _MASK64), n)[0, 0])


def spd_draws(words: Words, n: int, count: int = 1, law: SpectrumLaw = DEFAULT_LAW) -> np.ndarray:
    """(K, count, n, n): `count` SPD matrices per stream, each a Ginibre
    matrix and its eigenvalues; one QR and one `from_spectrum` for all."""
    G, lam = _draw(words, n, count, law)
    return from_spectrum(haar(G), lam)


def random_spd(n: int, seed: int, law: SpectrumLaw = DEFAULT_LAW) -> np.ndarray:
    """Random SPD matrix with eigenvalues from the spectrum law, drawn from
    the stream of key `seed`."""
    return spd_draws(Words(seed & _MASK64), n, 1, law)[0, 0]


def draw_instances(kind: str, n: int, m: int, seeds, law: SpectrumLaw = DEFAULT_LAW) -> tuple:
    """(A, B), each (K, m, n, n): one instance per seed of `seeds`, from
    the stream of key seed ^ KIND_TAGS[kind].  An instance's words are its
    Ginibre matrices, then its eigenvalue rows (`_draw`): one matrix and
    one row per A_i and B_i in the order A_1, B_1, A_2, ..., or for a
    commuting instance one matrix per pair, whose A_i and B_i share its
    eigenbasis, and the pair's two rows.  Every matrix is Q diag(lam) Q*
    with Q from one stacked QR, once for the whole stack."""
    if kind not in KIND_TAGS:
        raise errors.ConfigError(f"unknown instance kind {kind!r}")
    if n < 1 or m < 1:
        raise errors.ConfigError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    shared = kind == "commuting"
    G, lam = _draw(Words(seeds, KIND_TAGS[kind]), n, m if shared else 2 * m, law,
                   2 if shared else 1)
    Q = haar(G)
    if shared:
        Q = np.repeat(Q, 2, axis=-3)
    X = from_spectrum(Q, lam)
    return X[:, 0::2], X[:, 1::2]


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
    A, B = draw_instances(kind, n, m, [seed & _MASK64], law)
    return InstanceSet(m=m, n=n, A=A[0], B=B[0], seed=int(seed), kind=kind)
