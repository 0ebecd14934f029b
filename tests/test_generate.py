"""Stacked instance draws and stacked seeding against the one-seed path.

`generators` hashes many seeds at once and must give each the state and
stream of `np.random.default_rng(seed)`; the array forms of `splitmix64`
and `derive_seed` must agree with their scalar forms.  `draw_instances` draws
a stack of instances, each from its own generator, and must give each the
bytes of the one-instance draw it replaced, kept here as `_oracle_draw`: a
fresh `default_rng`, then per matrix a Ginibre matrix and the law's
eigenvalues, made into matrices by `_oracle_assemble`.
"""

import numpy as np
import pytest

from gmineq.generate import (SpectrumLaw, derive_seed, draw_instances, generate_instance,
                             generators, haar, splitmix64, spd_draws)
from gmineq.linalg import from_spectrum

MASK64 = (1 << 64) - 1
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def _oracle_ginibre(n, rng):
    re, im = rng.standard_normal((2, n, n))
    return (re + 1j * im) / np.sqrt(2.0)


def _oracle_eigenvalues(law, n, rng):
    return np.exp(rng.uniform(np.log(law.lo), np.log(law.hi), size=n))


def _oracle_draw(kind, n, m, seed, law):
    """(G, lam) of one instance, drawn matrix by matrix from its own
    stream."""
    rng = np.random.default_rng(seed & MASK64)
    G, lam = [], []
    for _ in range(m):
        if kind == "generic":
            for _ in range(2):
                G.append(_oracle_ginibre(n, rng))
                lam.append(_oracle_eigenvalues(law, n, rng))
        else:
            G.append(_oracle_ginibre(n, rng))
            lam.extend(_oracle_eigenvalues(law, n, rng) for _ in range(2))
    return np.stack(G), np.stack(lam)


def _oracle_assemble(kind, G, lam):
    """(A, B) of one instance's draws, each matrix Q diag(lam) Q* with Q
    from one stacked QR (the matrices a stacked draw must reproduce)."""
    Q = haar(G)
    if kind == "commuting":
        Q = np.repeat(Q, 2, axis=-3)  # A_i and B_i share one eigenbasis
    X = from_spectrum(Q, lam)
    return X[..., 0::2, :, :], X[..., 1::2, :, :]


def _same_stream(rng, seed):
    ref = np.random.default_rng(seed)
    if rng.bit_generator.state != ref.bit_generator.state:
        return False
    return (rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()
            and rng.integers(0, 2**63, 2).tolist() == ref.integers(0, 2**63, 2).tolist()
            and rng.bit_generator.state == ref.bit_generator.state)


def test_generators_match_default_rng():
    rng = np.random.default_rng(2024)
    seeds = (EDGE_SEEDS + [derive_seed(31, k) for k in range(5000)]
             + rng.integers(0, 2**64, 4000, dtype=np.uint64).tolist()
             + list(range(2, 1000)))
    assert len(seeds) >= 10_000
    streams = generators(seeds)
    assert len(streams) == len(seeds)
    bad = [seed for rng, seed in zip(streams, seeds) if not _same_stream(rng, seed)]
    assert bad == []


def test_generators_of_one_and_none():
    assert _same_stream(generators([2**64 - 1])[0], 2**64 - 1)
    assert generators([]) == []


@pytest.mark.parametrize("count", [2, 7, 8, 9])
def test_generators_of_a_few_seeds(count):
    """A few seeds are made by `default_rng`, more are hashed together:
    the streams are the same either side of the switch."""
    seeds = EDGE_SEEDS[:count] + [derive_seed(8, k) for k in range(count - len(EDGE_SEEDS))]
    streams = generators(seeds)
    assert len(streams) == count
    assert all(_same_stream(rng, seed) for rng, seed in zip(streams, seeds))
    assert len(generators(np.array(seeds, dtype=np.uint64))) == count


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
    """spd_draws draws each matrix as a generic instance draws its A_1, B_1,
    A_2, ... in turn."""
    for n in range(1, 7):
        for count in (1, 2, 5):
            X = spd_draws(generators(SEEDS), n, count, law)
            for row, seed in enumerate(SEEDS):
                G, lam = _oracle_draw("generic", n, (count + 1) // 2, seed, law)
                want = from_spectrum(haar(G[:count]), lam[:count])
                assert X[row].tobytes() == want.tobytes(), (n, count, seed)


@pytest.mark.parametrize("kind", ["generic", "commuting"])
@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_stacked_draws_match_oracle(kind, law):
    for n in range(1, 7):
        for m in range(1, 4):
            A, B = draw_instances(kind, n, m, generators(SEEDS), law)
            assert A.shape == B.shape == (len(SEEDS), m, n, n)
            for row, seed in enumerate(SEEDS):
                want_A, want_B = _oracle_assemble(kind, *_oracle_draw(kind, n, m, seed, law))
                assert A[row].tobytes() == want_A.tobytes(), (n, m, seed)
                assert B[row].tobytes() == want_B.tobytes(), (n, m, seed)


@pytest.mark.parametrize("kind", ["generic", "commuting"])
@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_generate_instance_matches_oracle(kind, law):
    for n in range(1, 7):
        for m in range(1, 4):
            for seed in SEEDS:
                inst = generate_instance(kind, n, m, seed, law)
                A, B = _oracle_assemble(kind, *_oracle_draw(kind, n, m, seed, law))
                assert np.stack(inst.A).tobytes() == A.tobytes(), (n, m, seed)
                assert np.stack(inst.B).tobytes() == B.tobytes(), (n, m, seed)
