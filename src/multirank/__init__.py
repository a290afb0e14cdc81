"""Rank invariants of multilinear forms, with exact counting oracles.

Computes and cross-verifies analytic rank (exact log-count), geometric
rank (stabilized point-counting estimate), partition rank and strength
(exact small-instance search with certificates), and Birch rank, over
explicit finite fields F_{p^e} and over the integers via prime reduction.
Every estimate keeps its exact integer counts alongside the derived
floats, and every effective inequality ships as a falsifiable property
suite (see multirank.verify).
"""

from .errors import BudgetError, InputError, MultirankError
from .field import FieldElement, FieldEmbedding, FieldSpec, embed, make_field
from .tensor import (
    Covector,
    HomogeneousForm,
    IntMultilinearForm,
    MultilinearForm,
    base_change,
    diagonal,
    direct_sum,
    int_diagonal,
    polarize,
    random_form,
    random_int_form,
    random_poly,
    weil_restrict,
)
from .counting import (
    BoxSpec,
    CountProfile,
    box_solutions,
    count_box,
    count_NR,
    count_SF,
    count_SF_naive,
    count_singular,
    fiber_counts,
    sf_profile,
)
from .oracles import count_fiber
from .ranks import (
    CodimEstimate,
    ExactLogRank,
    HeightRankEstimate,
    PrkResult,
    RankOneTerm,
    StrResult,
    ark_exact,
    brk_estimate,
    delta0_estimate,
    gamma_q_estimate,
    grk_estimate,
    prk_bounds,
    prk_exact_small,
    str_exact_small,
)
from .charzero import LiftReport, PrimeScan, lift_search, liminf_ark_scan, reduce_mod_p
from .verify import VerifyReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "InputError",
    "MultirankError",
    "FieldElement",
    "FieldEmbedding",
    "FieldSpec",
    "embed",
    "make_field",
    "Covector",
    "HomogeneousForm",
    "IntMultilinearForm",
    "MultilinearForm",
    "base_change",
    "diagonal",
    "direct_sum",
    "int_diagonal",
    "polarize",
    "random_form",
    "random_int_form",
    "random_poly",
    "weil_restrict",
    "BoxSpec",
    "CountProfile",
    "box_solutions",
    "count_box",
    "count_fiber",
    "count_NR",
    "count_SF",
    "count_SF_naive",
    "count_singular",
    "fiber_counts",
    "sf_profile",
    "CodimEstimate",
    "ExactLogRank",
    "HeightRankEstimate",
    "PrkResult",
    "RankOneTerm",
    "StrResult",
    "ark_exact",
    "brk_estimate",
    "delta0_estimate",
    "gamma_q_estimate",
    "grk_estimate",
    "prk_bounds",
    "prk_exact_small",
    "str_exact_small",
    "LiftReport",
    "PrimeScan",
    "lift_search",
    "liminf_ark_scan",
    "reduce_mod_p",
    "VerifyReport",
    "run_suite",
    "__version__",
]
