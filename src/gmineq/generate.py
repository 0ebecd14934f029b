"""Seeded instance generation.

Random matrices are Q diag(lambda) Q* with Q from orthonormalized complex
Gaussians (Haar-like) and eigenvalues drawn from a log-uniform law.
Identical arguments produce bit-identical instances.

Per-task seeds are derived with a splitmix64 mix of (base_seed, index),
so each task's instance depends on its index alone, not on run order.

`draw_instances` draws a stack of equal-shape instances, each from its
own stream, and builds their matrices with one QR call.  Each stream is
that of `np.random.default_rng(seed)`; `generators` makes the
streams of many seeds at once, hashing all their seeds together.
`generate_instance` is a stack of one, and every instance of a stack gets
the bytes it gets alone, as do `ginibre_draws` and `spd_draws` for
matrices drawn one after another from each generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import errors
from .blocks import InstanceSet
from .linalg import from_spectrum

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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


@dataclass(frozen=True)
class SpectrumLaw:
    """Log-uniform eigenvalue law on [lo, hi]; its log bounds are computed
    once per law, not once per draw."""

    lo: float = 0.1
    hi: float = 10.0

    def __post_init__(self):
        if not (self.lo > 0.0 and self.lo <= self.hi < math.inf):
            raise errors.InvalidSpectrumLaw(f"need finite 0 < lo <= hi, got [{self.lo}, {self.hi}]")

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


def _draw(rngs: list, n: int, count: int, law: SpectrumLaw = DEFAULT_LAW, rows: int = 1) -> tuple:
    """(G (K, count, n, n), lam (K, count * rows, n)): per generator, `count`
    Ginibre matrices, real parts drawn first, each followed by `rows` rows
    of n eigenvalues of the law; parts combined, uniforms scaled as `rng.uniform`
    scales them and exp taken, once for all."""
    normal = np.empty((len(rngs), count, 2, n, n))
    u = np.empty((len(rngs), count, rows, n))
    for rng, parts, uniforms in zip(rngs, normal, u):
        for j in range(count):
            rng.standard_normal(out=parts[j])
            rng.random(out=uniforms[j])
    G = (normal[:, :, 0] + 1j * normal[:, :, 1]) / np.sqrt(2.0)
    log_lo, log_hi = law._log_bounds
    return G, np.exp(log_lo + (log_hi - log_lo) * u).reshape(len(rngs), count * rows, n)


def ginibre_draws(rngs: list, n: int, count: int = 1) -> np.ndarray:
    """(K, count, n, n): `count` complex Ginibre matrices per generator."""
    return _draw(rngs, n, count, rows=0)[0]


def haar(G: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from a stack of Ginibre matrices, through
    one stacked QR."""
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return haar(ginibre_draws([rng], n)[0, 0])


def spd_draws(rngs: list, n: int, count: int = 1, law: SpectrumLaw = DEFAULT_LAW) -> np.ndarray:
    """(K, count, n, n): `count` SPD matrices per generator, each a Ginibre
    matrix and its eigenvalues; one QR and one `from_spectrum` for all."""
    G, lam = _draw(rngs, n, count, law)
    return from_spectrum(haar(G), lam)


def random_spd(n: int, rng: np.random.Generator, law: SpectrumLaw = DEFAULT_LAW) -> np.ndarray:
    """Random SPD matrix with eigenvalues from the spectrum law."""
    return spd_draws([rng], n, 1, law)[0, 0]


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(count + 1, 1) uint32: init, then each times mult modulo 2**32."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    return np.array(h, dtype=np.uint32)[:, None]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): the constants
# its hashmix steps take in turn while the pool is mixed (A) and while the
# state is read out (B), and those of its mix function.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(value: np.ndarray, constants: np.ndarray, k: int) -> np.ndarray:
    """SeedSequence's hashmix of the rows of `value` with hash steps k,
    k + 1, ...: row j is xored with constant k + j and multiplied by
    constant k + j + 1, modulo 2**32."""
    value = (value ^ constants[k:k + len(value)]) * constants[k + 1:k + len(value) + 1]
    return value ^ (value >> 16)


def _pcg64_seed_words(seeds) -> np.ndarray:
    """(K, 4) uint64: for each seed in [0, 2**64), the four words
    `np.random.SeedSequence(seed).generate_state(4, np.uint64)` gives, which
    PCG64 takes as its initial state and increment.  A seed's entropy is
    its 32-bit words, low first, in a pool of four words padded with zeros;
    a seed below 2**32 pads its one word with a zero too, so every seed
    hashes as two words and the whole list is hashed as (4, K) arrays."""
    s = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, s.size), dtype=np.uint32)
    pool[0], pool[1] = s & _MASK32, s >> 32
    pool = _hashmix(pool, _HASH_A, 0)
    k = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[[src] * 3], _HASH_A, k)
        pool[dst] = mixed ^ (mixed >> 16)
        k += 3
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B, 0).astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | (words[1::2] << 32)).T)


class _SeedWords(ISeedSequence):
    """A seed whose SeedSequence state is already computed: PCG64 asks for
    four uint64 words and gets them."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def generators(seeds) -> list:
    """One `np.random.Generator` per seed in [0, 2**64), each with the
    state and stream of `np.random.default_rng(seed)`: made by it for a
    few seeds, and from seeds hashed together for more."""
    seeds = np.array(seeds, dtype=np.uint64, ndmin=1)
    if seeds.size < 8:  # hashing the seeds together pays off from about 8 on
        return [np.random.default_rng(seed) for seed in seeds.tolist()]
    return [np.random.Generator(np.random.PCG64(_SeedWords(words)))
            for words in _pcg64_seed_words(seeds)]


def draw_instances(kind: str, n: int, m: int, rngs: list, law: SpectrumLaw = DEFAULT_LAW) -> tuple:
    """(A, B), each (K, m, n, n): one instance per generator of `rngs`.
    Each instance draws from its generator per matrix (per pair for
    commuting instances) the real then imaginary parts of a Ginibre
    matrix, then its n eigenvalues (both rows of the pair), A_1's first,
    then B_1's, so it gets the bytes of `ginibre_draws` and
    `SpectrumLaw.sample` on that stream; the parts are combined, the
    eigenvalues exponentiated, and every matrix made Q diag(lam) Q* with Q
    from one stacked QR, once for the whole stack.  The A_i and B_i of a
    commuting instance share one eigenbasis per pair."""
    if kind not in ("generic", "commuting"):
        raise errors.ConfigError(f"unknown instance kind {kind!r}")
    if n < 1 or m < 1:
        raise errors.ConfigError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    shared = kind == "commuting"
    G, lam = _draw(rngs, n, m if shared else 2 * m, law, 2 if shared else 1)
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
    A, B = draw_instances(kind, n, m, [np.random.default_rng(seed & _MASK64)], law)
    return InstanceSet(m=m, n=n, A=A[0], B=B[0], seed=int(seed), kind=kind)
