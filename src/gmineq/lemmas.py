"""Evaluators for the individual lemmas behind the chains, plus seeded
admissible-case generation for each lemma id.

Each lemma is declared once, in `_LEMMAS`: its operands and parameter
hypothesis, which `lemma_stack_terms` checks as the chains check theirs,
and its terms function, which checks operand premises.  A terms function
takes a stack of cases (each operand with a leading case axis, each
parameter one value per case) and checks each case; row k of its terms has
the bytes case k gets alone.  `random_case` and `lemma_terms` are the
one-case forms of `random_cases` and `lemma_stack_terms`.

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
from .generate import DEFAULT_LAW, SpectrumLaw, Words, ginibre_draws, haar, spd_draws, uniforms
from .linalg import (from_spectrum, hermitian_eig, hermitize, matrix_power, power_from_eig,
                     power_rows, psd_sv, sum_pairs, svd)
from .means import mean_unitary
from .norms import NormSpec, ky_fan_dominance, norm_values, singular_values

UNITARY_TOL = 1e-10
# The tag of the lemma cases' stream keys.
LEMMA_TAG = 0x4C454D41
# The normality premise: max|XX* - X*X| <= NORMAL_RTOL * max(1, max|X|^2).
NORMAL_RTOL = 1e-10


@dataclass(frozen=True)
class LemmaCase:
    """One admissible input for one lemma, or a stack of them (`random_cases`)."""

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
    """Singular value lists of a lemma's two sides, one row per case of a
    stack or one row; their norms come from one `norm_values` call."""

    def __init__(self, lhs_sv, rhs_sv, equality=False, hoelder=None):
        self.lhs_sv = lhs_sv
        self.rhs_sv = rhs_sv
        self.equality = equality
        # (x_sv, y_sv, q, s): rhs is a product of two norms, not a norm
        self.hoelder = hoelder

    @property
    def max_dim(self) -> int:
        return max(self.lhs_sv.shape[-1], 0 if self.rhs_sv is None else self.rhs_sv.shape[-1])

    def __getitem__(self, k) -> "_LemmaTerms":
        """The terms of case k of a stack."""
        return _LemmaTerms(self.lhs_sv[k], None if self.rhs_sv is None else self.rhs_sv[k],
                           self.equality, self.hoelder and tuple(v[k] for v in self.hoelder))

    def values(self, norms) -> tuple:
        """(lhs, rhs), each with one value per norm along its last axis."""
        lhs = norm_values(self.lhs_sv, norms)
        if self.hoelder is None:
            return lhs, norm_values(self.rhs_sv, norms)
        x_sv, y_sv, q, s = self.hoelder
        x, y = (norm_values(power_rows(sv, e), norms).reshape(-1, len(norms)).tolist()
                for sv, e in ((x_sv, q), (y_sv, s)))
        rhs = [[a ** (1.0 / qk) * b ** (1.0 / sk) for a, b in zip(xr, yr)]
               for xr, yr, qk, sk in zip(x, y, np.ravel(q).tolist(), np.ravel(s).tolist())]
        return lhs, np.reshape(rhs, lhs.shape)


def _normal(X) -> np.ndarray:
    """Whether each matrix of X is normal (see NORMAL_RTOL)."""
    Xh = X.conj().mT
    defect = np.abs(X @ Xh - Xh @ X).max(axis=(-2, -1))
    return defect <= NORMAL_RTOL * np.maximum(1.0, np.abs(X).max(axis=(-2, -1)) ** 2)


def _terms_araki(case) -> _LemmaTerms:
    A, B, p, q = case.operands["A"], case.operands["B"], case.params["p"], case.params["q"]
    Bq = matrix_power(B, q)
    return _LemmaTerms(psd_sv(B @ A @ B, p * q), psd_sv(Bq @ matrix_power(A, q) @ Bq, p))


def _terms_block_normal(case) -> _LemmaTerms:
    Z, ns = np.asarray(case.operands["Z"], dtype=np.complex128), case.params["n"]
    n = int(ns[0])
    if Z.shape[-2] != Z.shape[-1] or Z.shape[-1] % n or np.any(ns != n):
        raise errors.DimensionMismatch(f"block size {n} does not divide {Z.shape[-2:]}")
    m = Z.shape[-1] // n
    blocks = Z.reshape(len(Z), m, n, m, n).swapaxes(2, 3)  # blocks[k, i, j] = Z_ij, a view
    herm = np.abs(Z - Z.conj().mT).max(axis=(1, 2)) <= 1e-10 * np.abs(Z).max(axis=(1, 2), initial=1)
    if not (herm.all() or np.all(herm | _normal(blocks).all(axis=(1, 2)))):
        raise errors.HypothesisViolation("Z is neither Hermitian nor built from normal blocks")
    _, s, vh = svd(blocks)
    abs_blocks = (vh.conj().mT * s[..., None, :]) @ vh  # |Z_ij|, added in row-major order
    return _LemmaTerms(singular_values(Z), psd_sv(sum_pairs(abs_blocks.reshape(len(Z), -1, n, n))))


def _terms_hoelder(case) -> _LemmaTerms:
    X, Y = case.operands["X"], case.operands["Y"]
    hoelder = (singular_values(X), singular_values(Y), case.params["q"], case.params["s"])
    return _LemmaTerms(singular_values(np.asarray(X) @ np.asarray(Y)), None, hoelder=hoelder)


def _terms_normal_product(case) -> _LemmaTerms:
    A, B = (np.asarray(case.operands[k], dtype=np.complex128) for k in "AB")
    AB = A @ B
    if not _normal(AB).all():
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
    return _LemmaTerms(psd_sv(Y.conj().mT @ Y, a), psd_sv(Y @ Y.conj().mT, a), equality=True)


def _terms_convex_subadd(case) -> _LemmaTerms:
    As, r = np.asarray(case.operands["A_list"]), case.params["r"]
    return _LemmaTerms(psd_sv(sum_pairs(matrix_power(As, r[:, None]))),
                       psd_sv(matrix_power(sum_pairs(As), r)))


def _terms_concave_subadd(case) -> _LemmaTerms:
    AB, theta = np.stack([case.operands["A"], case.operands["B"]], axis=1), case.params["theta"]
    return _LemmaTerms(psd_sv(matrix_power(sum_pairs(AB), theta)),
                       psd_sv(sum_pairs(matrix_power(AB, theta[:, None]))))


def _terms_aub_power(case) -> _LemmaTerms:
    A, B = case.operands["A"], case.operands["B"]
    U = _require_unitary(case.operands["U"], "U")
    q = case.params["q"]
    return _LemmaTerms(power_rows(singular_values(np.asarray(A) @ U @ np.asarray(B)), q),
                       singular_values(matrix_power(A, q) @ U @ matrix_power(B, q)))


def _terms_block_diag_step(case) -> _LemmaTerms:
    """U_i comes from the SVD behind the mean A_i^s # B_i^s = F_i F_i*, so
    |A_i^{s/2} U_i B_i^{s/2}| is F_i F_i* itself (see `mean_unitary`): no
    power A_i^s is formed and U_i needs no polar projection."""
    s = case.params["s"]
    eig_A = hermitian_eig(np.asarray(case.operands["A_list"]))
    eig_B = hermitian_eig(np.asarray(case.operands["B_list"]))
    U, F = mean_unitary(eig_A, eig_B, s[:, None])
    _require_unitary(U, "U_i")
    half = (s[:, None] - 1.0) / 2.0
    blocks_sv = singular_values(power_from_eig(eig_A, half) @ U @ power_from_eig(eig_B, half))
    # descending and contiguous: numpy powers a reversed row by another routine
    lhs_sv = -np.sort(-power_rows(blocks_sv.reshape(len(s), -1), s / (s - 1.0)))
    return _LemmaTerms(lhs_sv, psd_sv((F @ F.conj().mT).sum(axis=1)))


# Lemma id -> (operand names, predicate on one case's params, its text, terms
# function), in the order of LEMMA_IDS, which numbers a sweep's lemma case seeds.
# An operand named Z (mn x mn) or *_list (m matrices) is the only kind that
# carries m (`m_free`).
_LEMMAS = {
    "Araki": (("A", "B"), lambda x: x["q"] >= 1 and x["p"] > 0, "q >= 1 and p > 0", _terms_araki),
    "BlockNormal": (("Z",), lambda x: x["n"] >= 1 and x["n"] % 1 == 0, "integer n >= 1",
                    _terms_block_normal),
    "Hoelder": (("X", "Y"),
                lambda x: x["q"] > 1 and x["s"] > 1 and abs(1 / x["q"] + 1 / x["s"] - 1) <= 1e-12,
                "conjugate exponents q, s > 1", _terms_hoelder),
    "NormalProduct": (("A", "B"), lambda x: True, "parameters", _terms_normal_product),
    "PowerMonotoneFamily": (("A", "B"), lambda x: x["r"] >= 1, "r >= 1", _terms_power_monotone),
    "GramSwap": (("Y",), lambda x: x["a"] >= 0, "a >= 0", _terms_gram_swap),
    "ConvexSubadd": (("A_list",), lambda x: x["r"] >= 1, "r >= 1", _terms_convex_subadd),
    "ConcaveSubaddBU": (("A", "B"), lambda x: 0 < x["theta"] <= 1, "theta in (0, 1]",
                        _terms_concave_subadd),
    "AUBPower": (("A", "B", "U"), lambda x: x["q"] >= 1, "q >= 1", _terms_aub_power),
    "BlockDiagStep": (("A_list", "B_list"), lambda x: x["s"] > 1, "s > 1", _terms_block_diag_step),
}
LEMMA_IDS = tuple(_LEMMAS)


def m_free(lemma_id: str) -> bool:
    """Whether no operand of the lemma carries m, so that `random_cases`
    draws its cases alike at every m and a sweep stacks every m of one n."""
    return not any(name == "Z" or name.endswith("_list") for name in _LEMMAS[lemma_id][0])


def lemma_stack_terms(cases: LemmaCase) -> _LemmaTerms:
    """The terms of a stack of cases, row k those of case k, once the stack
    has every operand of its lemma and each case's params are finite and
    hold its hypothesis."""
    names, holds, needs, terms = _LEMMAS[cases.lemma_id]
    for name in names:
        if name not in cases.operands:
            raise errors.ConfigError(f"{cases.lemma_id} needs operand {name!r}")
    columns = {k: np.asarray(v).tolist() for k, v in cases.params.items()}
    for k in range(len(cases.operands[names[0]])):
        params = {name: column[k] for name, column in columns.items()}
        try:
            admissible = all(map(np.isfinite, params.values())) and bool(holds(params))
        except (KeyError, TypeError, ValueError):
            admissible = False
        if not admissible:
            raise errors.HypothesisViolation(f"{cases.lemma_id} needs finite {needs}; got {params}")
    return terms(cases)


def lemma_terms(case: LemmaCase) -> _LemmaTerms:
    """The terms of one case: `lemma_stack_terms` on a stack of one."""
    operands = {k: np.asarray(v)[None] for k, v in case.operands.items()}
    params = {k: np.array([v]) for k, v in case.params.items()}
    return lemma_stack_terms(LemmaCase(case.lemma_id, operands, params))[0]


def lemma_margins(terms: _LemmaTerms, norms: list, tol_rel: float = DEFAULT_TOL_REL) -> tuple:
    """(lhs, rhs, margin, passed), one value per norm of `norms` (and per
    case of stacked terms): the chain margin rule on rhs - lhs, except that
    an equality lemma passes where |margin| <= tol_rel * scale."""
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


def random_cases(lemma_id: str, seeds, n: int = 2, m: int = 2,
                 law: SpectrumLaw = DEFAULT_LAW) -> LemmaCase:
    """A stack of admissible cases of the given lemma, case k drawn from the
    stream of key seeds[k] ^ LEMMA_TAG: every operand and parameter, in
    the order below, from consecutive words of every case's stream."""
    words = Words(seeds, LEMMA_TAG)

    def uniform(lo, hi, size=None):
        u = uniforms(words.take(size or 1))
        return lo + (hi - lo) * (u if size else u[:, 0])

    if lemma_id in ("Araki", "ConcaveSubaddBU", "AUBPower"):
        pair = dict(zip("AB", spd_draws(words, n, 2, law).swapaxes(0, 1)))
    if lemma_id == "Araki":
        return LemmaCase(lemma_id, pair, {"p": uniform(0.25, 2.0), "q": uniform(1.0, 3.0)})
    if lemma_id == "BlockNormal":
        # Hermitian block matrix: H = G + G* in mn x mn
        return LemmaCase(lemma_id, {"Z": hermitize(ginibre_draws(words, m * n)[:, 0])},
                         {"n": np.full(len(words.keys), n)})
    if lemma_id == "Hoelder":
        q = uniform(1.2, 4.0)
        X, Y = ginibre_draws(words, n, 2).swapaxes(0, 1)
        return LemmaCase(lemma_id, {"X": X, "Y": Y}, {"q": q, "s": q / (q - 1.0)})
    if lemma_id == "NormalProduct":
        # commuting Hermitian pair: the product is Hermitian, hence normal
        Q = haar(ginibre_draws(words, n)[:, 0])
        a, b = uniform(-2.0, 2.0, n), uniform(-2.0, 2.0, n)
        return LemmaCase(lemma_id, {"A": from_spectrum(Q, a), "B": from_spectrum(Q, b)}, {})
    if lemma_id == "PowerMonotoneFamily":
        # B random SPD; A gets entrywise-smaller eigenvalues in its own basis,
        # which gives weak majorization of singular values (the premise)
        lam_b = np.sort(law.sample(uniforms(words.take(n))))[:, ::-1]
        frac = uniform(0.1, 1.0, n)
        Qa, Qb = haar(ginibre_draws(words, n, 2)).swapaxes(0, 1)
        return LemmaCase(lemma_id, {"A": from_spectrum(Qa, lam_b * frac),
                                    "B": from_spectrum(Qb, lam_b)}, {"r": uniform(1.0, 3.0)})
    if lemma_id == "GramSwap":
        return LemmaCase(lemma_id, {"Y": ginibre_draws(words, n)[:, 0]}, {"a": uniform(0.25, 2.5)})
    if lemma_id == "ConvexSubadd":
        return LemmaCase(lemma_id, {"A_list": spd_draws(words, n, m, law)}, {"r": uniform(1.0, 3.0)})
    if lemma_id == "ConcaveSubaddBU":
        return LemmaCase(lemma_id, pair, {"theta": uniform(0.05, 1.0)})
    if lemma_id == "AUBPower":
        pair["U"] = haar(ginibre_draws(words, n)[:, 0])
        return LemmaCase(lemma_id, pair, {"q": uniform(1.0, 3.0)})
    if lemma_id == "BlockDiagStep":
        X = spd_draws(words, n, 2 * m, law)
        return LemmaCase(lemma_id, {"A_list": X[:, :m], "B_list": X[:, m:]},
                         {"s": uniform(1.1, 3.0)})
    raise errors.ConfigError(f"unknown lemma id {lemma_id!r}")


def random_case(lemma_id: str, seed: int, n: int = 2, m: int = 2,
                law: SpectrumLaw = DEFAULT_LAW) -> LemmaCase:
    """Seeded admissible case for the given lemma: `random_cases` on a
    stack of one."""
    cases = random_cases(lemma_id, [seed], n, m, law)
    return LemmaCase(lemma_id, {k: v[0] for k, v in cases.operands.items()},
                     {k: v[0].item() for k, v in cases.params.items()})
