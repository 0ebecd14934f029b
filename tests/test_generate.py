"""Counter-based draws against a word-by-word oracle, and the law they draw.

A stream is a 64-bit key, and its word j is `derive_seed(key, j)`; the
instance of kind `kind` from seed s reads the stream of key
s ^ KIND_TAGS[kind].  The oracle here computes each word with the scalar
`derive_seed` and draws one instance alone, by the documented layout:
its Ginibre matrices (2 n^2 words each, a complex normal per pair of
words), then its rows of eigenvalues (a word each).  `draw_instances`,
`spd_draws` and `generate_instance` must give every instance of a stack
those bytes.  The draws must follow their law: the uniforms, normals,
eigenvalues and Haar factors within 5 standard deviations of their
moments.  Each purpose reads its own stream, so a generic and a
commuting instance of one seed share no matrix, and importing the
package loads no `numpy.random`.
"""

import functools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import gmineq
from gmineq.generate import (KIND_TAGS, SpectrumLaw, Words, complex_normals, derive_seed,
                             draw_instances, generate_instance, ginibre_draws, haar, normals,
                             splitmix64, spd_draws, uniforms)
from gmineq.linalg import from_spectrum

MASK64 = (1 << 64) - 1
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@functools.lru_cache(maxsize=None)
def _oracle_words(key):
    """The first 600 words of the stream of `key`, one scalar hash each."""
    return np.array([derive_seed(key, j) for j in range(600)], dtype=np.uint64)


def _oracle_draw(key, n, count, rows, law):
    """(G, lam) of one stream drawn alone: `count` Ginibre matrices, then
    `count * rows` rows of n eigenvalues."""
    ginibre = 2 * n * n * count
    u = np.array([(int(w) >> 11) * 2.0 ** -53 for w in _oracle_words(key)])
    pairs = u[:ginibre].reshape(count, n * n, 2)
    G = np.sqrt(-np.log(1.0 - pairs[..., 0])) * np.exp(2j * np.pi * pairs[..., 1])
    log_lo, log_hi = np.log(law.lo), np.log(law.hi)
    lam = np.exp(log_lo + (log_hi - log_lo) * u[ginibre:ginibre + count * rows * n])
    return G.reshape(count, n, n), lam.reshape(count * rows, n)


def _oracle_instance(kind, n, m, seed, law):
    """(A, B) of one instance, each matrix Q diag(lam) Q* with Q from one
    stacked QR (the matrices a stacked draw must reproduce)."""
    shared = kind == "commuting"
    G, lam = _oracle_draw((seed & MASK64) ^ KIND_TAGS[kind], n, m if shared else 2 * m,
                          2 if shared else 1, law)
    Q = haar(G)
    if shared:
        Q = np.repeat(Q, 2, axis=-3)  # A_i and B_i share one eigenbasis
    X = from_spectrum(Q, lam)
    return X[0::2], X[1::2]


def test_words_are_counter_words():
    """`take` hands out consecutive words of every stream, its key the
    seed xored with the tag."""
    words = Words(EDGE_SEEDS, 0x1234)
    first, second = words.take(3), words.take(4)
    assert first.shape == (5, 3) and second.shape == (5, 4) and words.take(0).shape == (5, 0)
    for row, seed in enumerate(EDGE_SEEDS):
        want = [derive_seed(seed ^ 0x1234, j) for j in range(7)]
        assert first[row].tolist() + second[row].tolist() == want


def test_array_derive_seed_matches_scalar():
    indices = EDGE_SEEDS + [3, 2**63, 2**63 + 1] + list(range(100, 200))
    array = np.array(indices, dtype=np.uint64)
    with np.errstate(all="raise"):
        for base in EDGE_SEEDS + [31]:
            assert derive_seed(base, array).tolist() == [derive_seed(base, k) for k in indices]
            assert (derive_seed(derive_seed(base, array), 5).tolist()
                    == [derive_seed(derive_seed(base, k), 5) for k in indices])
        assert splitmix64(array).tolist() == [splitmix64(k) for k in indices]
    assert type(derive_seed(2**64 - 1, 0)) is int and type(splitmix64(0)) is int


LAWS = [SpectrumLaw(0.1, 10.0), SpectrumLaw(1e-6, 1e6), SpectrumLaw(2.0, 2.0)]
LAW_IDS = ["narrow", "wide", "point"]
SEEDS = EDGE_SEEDS + [derive_seed(7, k) for k in range(4)]


@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_spd_draws_match_oracle(law):
    """spd_draws draws its matrices from the next words of each stream:
    Ginibre matrices, then eigenvalues."""
    for n in range(1, 7):
        for count in (1, 2, 5):
            X = spd_draws(Words(SEEDS), n, count, law)
            for row, seed in enumerate(SEEDS):
                G, lam = _oracle_draw(seed, n, count, 1, law)
                assert X[row].tobytes() == from_spectrum(haar(G), lam).tobytes(), (n, count, seed)


def test_sequential_draws_continue_the_stream():
    """A second draw from one cursor reads the words after the first's."""
    words = Words(SEEDS)
    first, second = ginibre_draws(words, 2), ginibre_draws(words, 3, 2)
    for row, seed in enumerate(SEEDS):
        both = _oracle_draw(seed, 1, 4 + 18, 0, SpectrumLaw())[0].ravel()
        assert first[row].tobytes() == both[:4].tobytes()
        assert second[row].tobytes() == both[4:].tobytes()


@pytest.mark.parametrize("kind", ["generic", "commuting"])
@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_stacked_draws_match_oracle(kind, law):
    for n in range(1, 7):
        for m in range(1, 4):
            A, B = draw_instances(kind, n, m, SEEDS, law)
            assert A.shape == B.shape == (len(SEEDS), m, n, n)
            for row, seed in enumerate(SEEDS):
                want_A, want_B = _oracle_instance(kind, n, m, seed, law)
                assert A[row].tobytes() == want_A.tobytes(), (n, m, seed)
                assert B[row].tobytes() == want_B.tobytes(), (n, m, seed)


@pytest.mark.parametrize("kind", ["generic", "commuting"])
@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_generate_instance_matches_oracle(kind, law):
    for n in range(1, 7):
        for m in range(1, 4):
            for seed in SEEDS:
                inst = generate_instance(kind, n, m, seed, law)
                A, B = _oracle_instance(kind, n, m, seed, law)
                assert np.stack(inst.A).tobytes() == A.tobytes(), (n, m, seed)
                assert np.stack(inst.B).tobytes() == B.tobytes(), (n, m, seed)


@pytest.mark.parametrize("kind", ["generic", "commuting"])
def test_instance_independent_of_its_stack(kind):
    """An instance has the same bytes alone, in a stack, in the stack's
    reverse and in a stack with another seed repeated."""
    seeds = np.array(SEEDS, np.uint64)
    whole = draw_instances(kind, 3, 2, seeds)
    for stack in (seeds[::-1], np.repeat(seeds[:3], 3), seeds[4:5]):
        part = draw_instances(kind, 3, 2, stack)
        rows = [SEEDS.index(seed) for seed in stack.tolist()]
        assert all(part[i].tobytes() == whole[i][rows].tobytes() for i in range(2))
    assert [X.shape for X in draw_instances(kind, 3, 2, [])] == [(0, 2, 3, 3)] * 2


def test_kinds_share_no_matrix():
    """A sweep draws both kinds of task i from one task seed: the generic
    and the commuting instance of a seed share no matrix, nor an
    eigenbasis (no matrix of one commutes with one of the other), as the
    kinds' tags give them different streams."""
    for seed in range(200):
        generic, commuting = (generate_instance(kind, 3, 2, seed) for kind in KIND_TAGS)
        for X in [*generic.A, *generic.B]:
            for Y in [*commuting.A, *commuting.B]:
                defect = np.linalg.norm(X @ Y - Y @ X) / np.linalg.norm(X @ Y)
                assert defect > 1e-6, seed


def _within(mean, want, sigma, count):
    """The sample mean is within 5 standard deviations of its expectation."""
    return abs(mean - want) < 5.0 * sigma / math.sqrt(count)


def test_uniform_and_normal_moments():
    words = Words(range(100)).take(2000)
    u = uniforms(words).ravel()
    assert 0.0 <= u.min() and u.max() < 1.0
    assert _within(u.mean(), 0.5, math.sqrt(1 / 12), u.size)
    counts = np.bincount((u * 10).astype(int), minlength=10)
    sigma = math.sqrt(u.size * 0.1 * 0.9)
    assert np.all(np.abs(counts - u.size / 10) < 5.0 * sigma)
    z = normals(words).ravel()
    assert z.size == u.size
    assert _within(z.mean(), 0.0, 1.0, z.size)
    assert _within((z ** 2).mean(), 1.0, math.sqrt(2.0), z.size)
    assert _within((z ** 4).mean(), 3.0, math.sqrt(96.0), z.size)
    assert _within((z[0::2] * z[1::2]).mean(), 0.0, 1.0, z.size // 2)  # a pair's two normals
    c = complex_normals(words).ravel()
    assert _within((np.abs(c) ** 2).mean(), 1.0, 1.0, c.size)  # |z|^2 is exponential
    assert _within(abs(c.mean()), 0.0, math.sqrt(2.0), c.size)
    assert _within(abs((c ** 2).mean()), 0.0, math.sqrt(2.0), c.size)


@pytest.mark.parametrize("law", LAWS[:2], ids=LAW_IDS[:2])
def test_eigenvalues_log_uniform(law):
    """Each instance matrix's eigenvalues lie in [lo, hi] up to round-off,
    and are log-uniform: ten equal bins of log lambda each within 5
    binomial standard deviations of a tenth."""
    A, B = draw_instances("generic", 4, 3, range(1000), law)
    lam = np.linalg.eigvalsh(np.concatenate([A, B], axis=1)).ravel()
    assert lam.min() >= law.lo * (1 - 1e-9) and lam.max() <= law.hi * (1 + 1e-9)
    x = (np.log(np.clip(lam, law.lo, law.hi)) - np.log(law.lo)) / np.log(law.hi / law.lo)
    counts = np.bincount(np.minimum((x * 10).astype(int), 9), minlength=10)
    sigma = math.sqrt(lam.size * 0.1 * 0.9)
    assert np.all(np.abs(counts - lam.size / 10) < 5.0 * sigma), counts


@pytest.mark.parametrize("n", [2, 3, 4])
def test_haar_second_moment(n):
    """E|Q_ij|^2 = 1/n for every entry; |Q_ij|^2 is Beta(1, n - 1)."""
    count = 4000
    Q = haar(ginibre_draws(Words(range(count)), n)[:, 0])
    assert np.allclose(Q.conj().mT @ Q, np.eye(n), atol=1e-12)
    sigma = math.sqrt((n - 1) / (n * n * (n + 1)))
    mean = (np.abs(Q) ** 2).mean(axis=0)
    assert all(_within(v, 1.0 / n, sigma, count) for v in mean.ravel()), mean


def test_import_loads_no_numpy_random():
    src = pathlib.Path(gmineq.__file__).parents[1]
    code = "import sys, gmineq; sys.exit('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
