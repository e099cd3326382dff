"""Frequency-hopping sequences with optimal Hamming correlation and controlled gaps."""

from .construct import (
    OrderSeq,
    PairParams,
    RecursiveParams,
    TripleParams,
    construct_pair,
    construct_recursive,
    construct_triple,
    ds_sequence,
    gap_condition,
    lift_order_seq,
    pi_m,
    recursive_rows,
    unit_step_min_gap,
)
from .errors import ConsistencyError, ParameterError, SearchSpaceError, UnsupportedCaseError
from .gapbound import GapBoundCase, case1_blocks, extremal_sequence, gap_upper_bound
from .numtheory import DuSet, GfContext, canonical_du, du_violation, factorize, is_du
from .oracle import (
    EnumerationReport,
    brute_hamming_profile,
    canonical_form,
    enumerate_du_sets,
    enumerate_optimal_order_seqs,
    enumerate_uniform,
    exhaustive_max_min_gap,
)
from .report import VerificationReport, render_table2, verify_sequence
from .seeds import (
    B1Params,
    CyclotomyParams,
    QrParams,
    b1_construct,
    cyclotomic_construct,
    is_valid_b,
    lift_seed,
    pipeline_seed_to_wgfhs,
    qr_construct,
    valid_b_patterns,
)
from .sequence import (
    CorrelationProfile,
    Fhs,
    auto_profile,
    cross_profile,
    frequency_counts,
    is_uniform,
    lg_bound,
    max_auto,
    min_gap,
    sorted_alphabet_gap_bound,
    wg_lg_bound,
)

__version__ = "0.1.0"
