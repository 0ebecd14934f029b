"""Evaluators for the individual lemmas behind the chains, plus seeded
admissible-case generation for each lemma id.

Each lemma is declared once, in `_LEMMAS`: its parameter hypothesis, which
`lemma_terms` checks as the chains check theirs, and its terms function,
which checks only operand premises.  BlockNormal (one SVD of all blocks),
ConvexSubadd and ConcaveSubaddBU (one stacked power) add stacks by `sum_pairs`.

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
                     psd_sv, sum_pairs, svd)
from .means import mean_unitary
from .norms import NormSpec, ky_fan_dominance, norm_values, singular_values

UNITARY_TOL = 1e-10
# The normality premise: max|XX* - X*X| <= NORMAL_RTOL * max(1, max|X|^2).
NORMAL_RTOL = 1e-10


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


def _normal(X) -> bool:
    """Whether X, or every matrix of a stack X, is normal (see NORMAL_RTOL)."""
    Xh = X.conj().mT
    defect = np.abs(X @ Xh - Xh @ X).max(axis=(-2, -1))
    return bool(np.all(defect <= NORMAL_RTOL * np.maximum(1.0, np.abs(X).max(axis=(-2, -1)) ** 2)))


def _terms_araki(case) -> _LemmaTerms:
    A, B, p, q = case.operands["A"], case.operands["B"], case.params["p"], case.params["q"]
    Bq = matrix_power(B, q)
    return _LemmaTerms(psd_sv(B @ A @ B, p * q), psd_sv(Bq @ matrix_power(A, q) @ Bq, p))


def _terms_block_normal(case) -> _LemmaTerms:
    Z = np.asarray(case.operands["Z"], dtype=np.complex128)
    n = int(case.params["n"])
    if Z.shape[0] != Z.shape[1] or Z.shape[0] % n:
        raise errors.DimensionMismatch(f"block size {n} does not divide {Z.shape}")
    m = Z.shape[0] // n
    blocks = Z.reshape(m, n, m, n).swapaxes(1, 2)  # blocks[i, j] = Z_ij, a view
    herm = np.abs(Z - Z.conj().T).max() <= 1e-10 * max(1.0, np.abs(Z).max())
    if not (herm or _normal(blocks)):
        raise errors.HypothesisViolation("Z is neither Hermitian nor built from normal blocks")
    _, s, vh = svd(blocks)
    abs_blocks = (vh.conj().mT * s[..., None, :]) @ vh  # |Z_ij|, added in row-major order
    return _LemmaTerms(singular_values(Z), psd_sv(sum_pairs(abs_blocks.reshape(m * m, n, n))))


def _terms_hoelder(case) -> _LemmaTerms:
    X, Y = case.operands["X"], case.operands["Y"]
    hoelder = (singular_values(X), singular_values(Y), case.params["q"], case.params["s"])
    return _LemmaTerms(singular_values(np.asarray(X) @ np.asarray(Y)), None, hoelder=hoelder)


def _terms_normal_product(case) -> _LemmaTerms:
    A, B = (np.asarray(case.operands[k], dtype=np.complex128) for k in "AB")
    AB = A @ B
    if not _normal(AB):
        raise errors.HypothesisViolation(f"AB is not normal within {NORMAL_RTOL:.0e}")
    return _LemmaTerms(singular_values(AB), singular_values(B @ A))


def _terms_power_monotone(case) -> _LemmaTerms:
    A, B = case.operands["A"], case.operands["B"]
    premise = ky_fan_dominance(A, B)
    if not premise.dominated:
        raise errors.HypothesisViolation(f"premise fails: Ky Fan {premise.worst_k} margin "
                                         f"{premise.worst_margin:.3e}")
    return _LemmaTerms(psd_sv(A, case.params["r"]), psd_sv(B, case.params["r"]))


def _terms_gram_swap(case) -> _LemmaTerms:
    Y, a = np.asarray(case.operands["Y"], dtype=np.complex128), case.params["a"]
    return _LemmaTerms(psd_sv(Y.conj().T @ Y, a), psd_sv(Y @ Y.conj().T, a), equality=True)


def _terms_convex_subadd(case) -> _LemmaTerms:
    As, r = np.stack(case.operands["A_list"]), case.params["r"]
    return _LemmaTerms(psd_sv(sum_pairs(matrix_power(As, r))),
                       psd_sv(matrix_power(sum_pairs(As), r)))


def _terms_concave_subadd(case) -> _LemmaTerms:
    AB, theta = np.stack([case.operands["A"], case.operands["B"]]), case.params["theta"]
    return _LemmaTerms(psd_sv(matrix_power(sum_pairs(AB), theta)),
                       psd_sv(sum_pairs(matrix_power(AB, theta))))


def _terms_aub_power(case) -> _LemmaTerms:
    A, B = case.operands["A"], case.operands["B"]
    U = _require_unitary(case.operands["U"], "U")
    q = case.params["q"]
    return _LemmaTerms(singular_values(np.asarray(A) @ U @ np.asarray(B)) ** q,
                       singular_values(matrix_power(A, q) @ U @ matrix_power(B, q)))


def _terms_block_diag_step(case) -> _LemmaTerms:
    """U_i comes from the SVD behind the mean A_i^s # B_i^s = F_i F_i*, so
    |A_i^{s/2} U_i B_i^{s/2}| is F_i F_i* itself (see `mean_unitary`): no
    power A_i^s is formed and U_i needs no polar projection."""
    s = case.params["s"]
    eig_A = hermitian_eig(np.stack(case.operands["A_list"]))
    eig_B = hermitian_eig(np.stack(case.operands["B_list"]))
    U, F = mean_unitary(eig_A, eig_B, s)
    _require_unitary(U, "U_i")
    blocks_sv = singular_values(power_from_eig(eig_A, (s - 1.0) / 2.0) @ U
                                @ power_from_eig(eig_B, (s - 1.0) / 2.0))
    lhs_sv = np.sort(blocks_sv.ravel() ** (s / (s - 1.0)))[::-1]
    return _LemmaTerms(lhs_sv, psd_sv((F @ F.conj().mT).sum(axis=0)))


# Lemma id -> (predicate on the case's params, its text, terms function),
# in the order of LEMMA_IDS, which numbers a sweep's lemma case seeds.
_LEMMAS = {
    "Araki": (lambda x: x["q"] >= 1 and x["p"] > 0, "q >= 1 and p > 0", _terms_araki),
    "BlockNormal": (lambda x: x["n"] >= 1 and x["n"] % 1 == 0, "integer n >= 1",
                    _terms_block_normal),
    "Hoelder": (lambda x: x["q"] > 1 and x["s"] > 1 and abs(1 / x["q"] + 1 / x["s"] - 1) <= 1e-12,
                "conjugate exponents q, s > 1", _terms_hoelder),
    "NormalProduct": (lambda x: True, "parameters", _terms_normal_product),
    "PowerMonotoneFamily": (lambda x: x["r"] >= 1, "r >= 1", _terms_power_monotone),
    "GramSwap": (lambda x: x["a"] >= 0, "a >= 0", _terms_gram_swap),
    "ConvexSubadd": (lambda x: x["r"] >= 1, "r >= 1", _terms_convex_subadd),
    "ConcaveSubaddBU": (lambda x: 0 < x["theta"] <= 1, "theta in (0, 1]", _terms_concave_subadd),
    "AUBPower": (lambda x: x["q"] >= 1, "q >= 1", _terms_aub_power),
    "BlockDiagStep": (lambda x: x["s"] > 1, "s > 1", _terms_block_diag_step),
}
LEMMA_IDS = tuple(_LEMMAS)


def lemma_terms(case: LemmaCase) -> _LemmaTerms:
    """The terms of `case`, once its params are finite and hold its hypothesis."""
    holds, needs, terms = _LEMMAS[case.lemma_id]
    try:
        admissible = all(map(np.isfinite, case.params.values())) and bool(holds(case.params))
    except (KeyError, TypeError, ValueError):
        admissible = False
    if not admissible:
        raise errors.HypothesisViolation(f"{case.lemma_id} needs finite {needs}; got {case.params}")
    return terms(case)


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
