"""Numerical laboratory for norm inequalities of matrix geometric means.

Builds the block matrix with entries B_i^{1/2} (sum_k A_k) B_j^{1/2},
evaluates the inequality chains relating sums of geometric-mean powers to
it across the full Ky Fan and Schatten norm families, and hunts for
counterexamples in the conjectured parameter region.
"""

from .blocks import (
    EquivalenceReport,
    InstanceSet,
    build_Y,
    build_Z,
    reduced_core,
    verify_equivalences,
)
from .chains import ChainParams, t_chain_status
from .generate import SpectrumLaw, derive_seed, generate_instance, haar_unitary, random_spd
from .hunt import SearchConfig, SearchResult, evaluate_argmin, hunt
from .lemmas import LEMMA_IDS, LemmaCase, LemmaReport, eval_lemma, random_case
from .linalg import EigenDecomposition, hermitian_eig, matrix_power
from .means import geometric_mean, t_geometric_mean
from .norms import DominanceReport, NormSpec, ky_fan_dominance, norm_values, singular_values
from .reports import ReportSet, read_reports, write_reports
from .sweep import SweepConfig, run_sweep

__version__ = "0.1.0"
