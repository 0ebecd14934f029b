"""Evaluators for the individual lemmas behind the chains, plus seeded
admissible-case generation for each lemma id.

Lemma ids:
  Araki               ||(BAB)^{pq}|| <= ||(B^q A^q B^q)^p||
  BlockNormal         ||Z|| <= ||sum_{ij} |Z_ij| ||  (Hermitian block matrix)
  Hoelder             ||XY|| <= |||X|^q||^{1/q} |||Y|^s||^{1/s}
  NormalProduct       ||AB|| <= ||BA|| when AB is normal
  PowerMonotoneFamily Ky Fan dominance of (A, B) implies dominance of (A^r, B^r)
  GramSwap            ||(Y*Y)^a|| = ||(YY*)^a||
  ConvexSubadd        ||sum f(A_i)|| <= ||f(sum A_i)||, f(x) = x^r, r >= 1
  ConcaveSubaddBU     ||f(A+B)|| <= ||f(A) + f(B)||, f(x) = x^theta, theta in (0, 1]
  AUBPower            || |AUB|^q || <= || |A^q U B^q| ||
  BlockDiagStep       || |X|^q || <= || sum_i |A_i^{s/2} U_i B_i^{s/2}| ||
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .chains import DEFAULT_TOL_REL, chain_margins
from .generate import DEFAULT_LAW, SpectrumLaw, ginibre, haar_unitary, random_spd
from .linalg import (from_spectrum, hermitian_eig, hermitize, matrix_power, power_from_eig,
                     psd_sv, svd)
from .means import mean_unitary
from .norms import NormSpec, ky_fan_dominance, norm_values, singular_values

LEMMA_IDS = (
    "Araki",
    "BlockNormal",
    "Hoelder",
    "NormalProduct",
    "PowerMonotoneFamily",
    "GramSwap",
    "ConvexSubadd",
    "ConcaveSubaddBU",
    "AUBPower",
    "BlockDiagStep",
)

UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class LemmaCase:
    """One admissible input for one lemma."""

    lemma_id: str
    operands: dict
    params: dict

    def __post_init__(self):
        if self.lemma_id not in LEMMA_IDS:
            raise errors.ConfigError(f"unknown lemma id {self.lemma_id!r}")


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    norm: NormSpec
    lhs: float
    rhs: float
    margin: float
    passed: bool
    equality: bool = False


def _require_unitary(U, name: str) -> np.ndarray:
    U = np.asarray(U, dtype=np.complex128)
    defect = np.abs(U @ U.conj().mT - np.eye(U.shape[-1])).max()
    if defect > UNITARY_TOL:
        raise errors.NotUnitary(f"{name}: unitarity defect {defect:.3e} > {UNITARY_TOL:.1e}")
    return U


class _LemmaTerms:
    """Singular value lists of a lemma's two sides; every norm of a list
    comes from one `norm_values` call."""

    def __init__(self, lhs_sv, rhs_sv, equality=False, hoelder=None):
        self.lhs_sv = lhs_sv
        self.rhs_sv = rhs_sv
        self.equality = equality
        # (x_sv, y_sv, q, s): rhs is a product of two norms, not a norm
        self.hoelder = hoelder

    @property
    def max_dim(self) -> int:
        return max(self.lhs_sv.size, 0 if self.rhs_sv is None else self.rhs_sv.size)

    def values(self, norms) -> tuple:
        """(lhs, rhs), each an array with one value per norm."""
        lhs = norm_values(self.lhs_sv, norms)
        if self.hoelder is None:
            return lhs, norm_values(self.rhs_sv, norms)
        x_sv, y_sv, q, s = self.hoelder
        x, y = norm_values(x_sv ** q, norms).tolist(), norm_values(y_sv ** s, norms).tolist()
        return lhs, np.array([a ** (1.0 / q) * b ** (1.0 / s) for a, b in zip(x, y)])


def _terms_araki(case) -> _LemmaTerms:
    A, B = case.operands["A"], case.operands["B"]
    p, q = case.params["p"], case.params["q"]
    if not (q >= 1.0 and p > 0.0):
        raise errors.HypothesisViolation(f"need q >= 1 and p > 0, got q={q}, p={p}")
    bab = hermitize(B @ A @ B)
    Bq = matrix_power(B, q)
    inner = hermitize(Bq @ matrix_power(A, q) @ Bq)
    return _LemmaTerms(psd_sv(bab, p * q), psd_sv(inner, p))


def _terms_block_normal(case) -> _LemmaTerms:
    Z = np.asarray(case.operands["Z"], dtype=np.complex128)
    n = int(case.params["n"])
    mn = Z.shape[0]
    if Z.shape[0] != Z.shape[1] or mn % n:
        raise errors.DimensionMismatch(f"block size {n} does not divide {Z.shape}")
    m = mn // n
    herm = np.abs(Z - Z.conj().T).max() <= 1e-10 * max(1.0, np.abs(Z).max())
    blocks = [
        [Z[i * n:(i + 1) * n, j * n:(j + 1) * n] for j in range(m)] for i in range(m)
    ]
    if not herm:
        for row in blocks:
            for blk in row:
                defect = np.abs(
                    blk @ blk.conj().T - blk.conj().T @ blk
                ).max()
                if defect > 1e-10 * max(1.0, np.abs(blk).max() ** 2):
                    raise errors.HypothesisViolation(
                        "Z is neither Hermitian nor built from normal blocks"
                    )
    lhs_sv = singular_values(Z)
    acc = np.zeros((n, n), dtype=np.complex128)
    for row in blocks:
        for blk in row:
            _, s, vh = svd(blk)
            acc += (vh.conj().T * s) @ vh  # |blk| = (blk* blk)^{1/2}
    rhs_sv = psd_sv(acc)
    return _LemmaTerms(lhs_sv, rhs_sv)


def _terms_hoelder(case) -> _LemmaTerms:
    X, Y = case.operands["X"], case.operands["Y"]
    q, s = case.params["q"], case.params["s"]
    if not (q > 1.0 and s > 1.0 and abs(1.0 / q + 1.0 / s - 1.0) <= 1e-12):
        raise errors.HypothesisViolation(f"need conjugate exponents q, s > 1; got q={q}, s={s}")
    lhs_sv = singular_values(np.asarray(X) @ np.asarray(Y))
    return _LemmaTerms(
        lhs_sv, None, hoelder=(singular_values(X), singular_values(Y), q, s)
    )


def _terms_normal_product(case) -> _LemmaTerms:
    A = np.asarray(case.operands["A"], dtype=np.complex128)
    B = np.asarray(case.operands["B"], dtype=np.complex128)
    AB = A @ B
    defect = np.abs(AB @ AB.conj().T - AB.conj().T @ AB).max()
    if defect > 1e-10 * max(1.0, np.abs(AB).max() ** 2):
        raise errors.HypothesisViolation(f"AB is not normal: defect {defect:.3e}")
    return _LemmaTerms(singular_values(AB), singular_values(B @ A))


def _terms_power_monotone(case) -> _LemmaTerms:
    A, B = case.operands["A"], case.operands["B"]
    r = case.params["r"]
    if not r >= 1.0:
        raise errors.HypothesisViolation(f"need r >= 1, got r={r}")
    premise = ky_fan_dominance(A, B)
    if not premise.dominated:
        raise errors.HypothesisViolation(
            f"premise fails: Ky Fan {premise.worst_k} margin {premise.worst_margin:.3e}"
        )
    return _LemmaTerms(psd_sv(A, r), psd_sv(B, r))


def _terms_gram_swap(case) -> _LemmaTerms:
    Y = np.asarray(case.operands["Y"], dtype=np.complex128)
    a = case.params["a"]
    if a < 0.0:
        raise errors.HypothesisViolation(f"need a >= 0, got a={a}")
    return _LemmaTerms(psd_sv(Y.conj().T @ Y, a), psd_sv(Y @ Y.conj().T, a), equality=True)


def _terms_convex_subadd(case) -> _LemmaTerms:
    As = case.operands["A_list"]
    r = case.params["r"]
    if not r >= 1.0:
        raise errors.HypothesisViolation(f"f(x)=x^r needs r >= 1, got r={r}")
    lhs = sum(matrix_power(Ai, r) for Ai in As)
    rhs = matrix_power(hermitize(sum(As)), r)
    return _LemmaTerms(psd_sv(lhs), psd_sv(rhs))


def _terms_concave_subadd(case) -> _LemmaTerms:
    A, B = case.operands["A"], case.operands["B"]
    theta = case.params["theta"]
    if not 0.0 < theta <= 1.0:
        raise errors.HypothesisViolation(f"f(x)=x^theta needs theta in (0, 1], got {theta}")
    lhs = matrix_power(hermitize(np.asarray(A) + np.asarray(B)), theta)
    rhs = matrix_power(A, theta) + matrix_power(B, theta)
    return _LemmaTerms(psd_sv(lhs), psd_sv(rhs))


def _terms_aub_power(case) -> _LemmaTerms:
    A, B = case.operands["A"], case.operands["B"]
    U = _require_unitary(case.operands["U"], "U")
    q = case.params["q"]
    if not q >= 1.0:
        raise errors.HypothesisViolation(f"need q >= 1, got q={q}")
    lhs_sv = singular_values(np.asarray(A) @ U @ np.asarray(B)) ** q
    rhs_sv = singular_values(matrix_power(A, q) @ U @ matrix_power(B, q))
    return _LemmaTerms(lhs_sv, rhs_sv)


def _terms_block_diag_step(case) -> _LemmaTerms:
    """U_i comes from the SVD behind the mean A_i^s # B_i^s = F_i F_i*, so
    |A_i^{s/2} U_i B_i^{s/2}| is F_i F_i* itself (see `mean_unitary`): no
    power A_i^s is formed and U_i needs no polar projection."""
    s = case.params["s"]
    if not s > 1.0:
        raise errors.HypothesisViolation(f"need s > 1, got s={s}")
    eig_A = hermitian_eig(np.stack(case.operands["A_list"]))
    eig_B = hermitian_eig(np.stack(case.operands["B_list"]))
    U, F = mean_unitary(eig_A, eig_B, s)
    _require_unitary(U, "U_i")
    blocks_sv = singular_values(power_from_eig(eig_A, (s - 1.0) / 2.0) @ U
                                @ power_from_eig(eig_B, (s - 1.0) / 2.0))
    lhs_sv = np.sort(blocks_sv.ravel() ** (s / (s - 1.0)))[::-1]
    return _LemmaTerms(lhs_sv, psd_sv((F @ F.conj().mT).sum(axis=0)))


_TERMS = {
    "Araki": _terms_araki,
    "BlockNormal": _terms_block_normal,
    "Hoelder": _terms_hoelder,
    "NormalProduct": _terms_normal_product,
    "PowerMonotoneFamily": _terms_power_monotone,
    "GramSwap": _terms_gram_swap,
    "ConvexSubadd": _terms_convex_subadd,
    "ConcaveSubaddBU": _terms_concave_subadd,
    "AUBPower": _terms_aub_power,
    "BlockDiagStep": _terms_block_diag_step,
}


def lemma_terms(case: LemmaCase) -> _LemmaTerms:
    return _TERMS[case.lemma_id](case)


def lemma_margins(terms: _LemmaTerms, norms: list, tol_rel: float = DEFAULT_TOL_REL) -> tuple:
    """(lhs, rhs, margin, passed), one value per norm of `norms`: the chain
    margin rule on rhs - lhs, except that an equality lemma passes where
    |margin| <= tol_rel * scale."""
    lhs, rhs = terms.values(norms)
    (margin,), _, scale, passed = chain_margins(lhs, None, rhs, tol_rel)
    if terms.equality:
        passed = np.abs(margin) <= tol_rel * scale
    return lhs, rhs, margin, passed


def lemma_report_from_terms(
    lemma_id: str, terms: _LemmaTerms, norm: NormSpec, tol_rel: float = DEFAULT_TOL_REL
) -> LemmaReport:
    """Evaluate one norm on precomputed lemma terms."""
    lhs, rhs, margin, passed = (v.item() for v in lemma_margins(terms, [norm], tol_rel))
    return LemmaReport(lemma_id=lemma_id, norm=norm, lhs=lhs, rhs=rhs, margin=margin,
                       passed=passed, equality=terms.equality)


def eval_lemma(case: LemmaCase, norm: NormSpec, tol_rel: float = DEFAULT_TOL_REL) -> LemmaReport:
    """Evaluate both sides of the cited statement under one norm."""
    return lemma_report_from_terms(case.lemma_id, lemma_terms(case), norm, tol_rel)


def random_case(
    lemma_id: str,
    seed: int,
    n: int = 2,
    m: int = 2,
    law: SpectrumLaw = DEFAULT_LAW,
) -> LemmaCase:
    """Seeded admissible case for the given lemma."""
    rng = np.random.default_rng(seed)
    if lemma_id == "Araki":
        return LemmaCase(lemma_id, {"A": random_spd(n, rng, law), "B": random_spd(n, rng, law)},
                         {"p": float(rng.uniform(0.25, 2.0)), "q": float(rng.uniform(1.0, 3.0))})
    if lemma_id == "BlockNormal":
        # Hermitian block matrix: H = G + G* in mn x mn
        G = ginibre(m * n, rng)
        return LemmaCase(lemma_id, {"Z": hermitize(G)}, {"n": n})
    if lemma_id == "Hoelder":
        q = float(rng.uniform(1.2, 4.0))
        return LemmaCase(lemma_id, {"X": ginibre(n, rng), "Y": ginibre(n, rng)},
                         {"q": q, "s": q / (q - 1.0)})
    if lemma_id == "NormalProduct":
        # commuting Hermitian pair: the product is Hermitian, hence normal
        Q = haar_unitary(n, rng)
        a = rng.uniform(-2.0, 2.0, size=n)
        b = rng.uniform(-2.0, 2.0, size=n)
        return LemmaCase(lemma_id,
                         {"A": from_spectrum(Q, a), "B": from_spectrum(Q, b)},
                         {})
    if lemma_id == "PowerMonotoneFamily":
        # B random SPD; A gets entrywise-smaller eigenvalues in its own basis,
        # which gives weak majorization of singular values (the premise)
        lam_b = np.sort(law.sample(rng, n))[::-1]
        frac = rng.uniform(0.1, 1.0, size=n)
        Qa, Qb = haar_unitary(n, rng), haar_unitary(n, rng)
        return LemmaCase(lemma_id, {"A": from_spectrum(Qa, lam_b * frac),
                                    "B": from_spectrum(Qb, lam_b)},
                         {"r": float(rng.uniform(1.0, 3.0))})
    if lemma_id == "GramSwap":
        return LemmaCase(lemma_id, {"Y": ginibre(n, rng)}, {"a": float(rng.uniform(0.25, 2.5))})
    if lemma_id == "ConvexSubadd":
        return LemmaCase(lemma_id, {"A_list": [random_spd(n, rng, law) for _ in range(m)]},
                         {"r": float(rng.uniform(1.0, 3.0))})
    if lemma_id == "ConcaveSubaddBU":
        return LemmaCase(lemma_id, {"A": random_spd(n, rng, law), "B": random_spd(n, rng, law)},
                         {"theta": float(rng.uniform(0.05, 1.0))})
    if lemma_id == "AUBPower":
        return LemmaCase(lemma_id,
                         {"A": random_spd(n, rng, law), "B": random_spd(n, rng, law),
                          "U": haar_unitary(n, rng)},
                         {"q": float(rng.uniform(1.0, 3.0))})
    if lemma_id == "BlockDiagStep":
        return LemmaCase(lemma_id,
                         {"A_list": [random_spd(n, rng, law) for _ in range(m)],
                          "B_list": [random_spd(n, rng, law) for _ in range(m)]},
                         {"s": float(rng.uniform(1.1, 3.0))})
    raise errors.ConfigError(f"unknown lemma id {lemma_id!r}")
