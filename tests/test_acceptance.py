"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints a
single pass/fail line (visible with `pytest -s` or in captured output).
Golden vectors are exact; timing budgets are asserted.
"""

import math
import random
import time
from contextlib import contextmanager

from fhskit import (
    B1Params,
    CyclotomyParams,
    Fhs,
    GfContext,
    OrderSeq,
    PairParams,
    QrParams,
    RecursiveParams,
    TripleParams,
    UnsupportedCaseError,
    auto_profile,
    b1_construct,
    brute_hamming_profile,
    canonical_form,
    construct_pair,
    construct_recursive,
    construct_triple,
    cross_profile,
    cyclotomic_construct,
    ds_sequence,
    enumerate_optimal_order_seqs,
    exhaustive_max_min_gap,
    extremal_sequence,
    gap_condition,
    gap_upper_bound,
    is_uniform,
    lift_order_seq,
    max_auto,
    min_gap,
    pipeline_seed_to_wgfhs,
    qr_construct,
    recursive_rows,
    verify_sequence,
)
from fhskit.numtheory import units

from vectors import (
    B1_SEED_18,
    CYCLOTOMIC_SEED_24,
    LIFTS_OF_001212,
    OPTIMAL_ORDER_SEQS_M3,
    PAIR_50,
    PI_6,
    PIPELINE_U50,
    PIPELINE_U54,
    PIPELINE_U72,
    QR_SEED_10,
    RECURSIVE_30,
    RECURSIVE_42,
    TRIPLE_75,
)


@contextmanager
def criterion(num, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_seconds
    verdict = "PASS" if within else "FAIL (over time budget)"
    print(f"criterion {num:02d} {name}: {verdict} ({elapsed * 1000:.2f} ms)")
    assert within, f"{elapsed:.4f}s exceeded the {budget_seconds}s budget"


def test_c01_pair_golden_vector():
    with criterion(1, "pair golden vector", 0.001):
        v = construct_pair(PairParams(25, 7, 9))
        assert v.symbols == PAIR_50
        rep = verify_sequence(v)
        assert rep.max_auto == 2
        assert rep.min_gap == 6
        assert rep.is_uniform
        assert rep.is_optimal


def test_c02_triple_golden_vector():
    with criterion(2, "triple golden vector", 0.001):
        v = construct_triple(TripleParams(25, 6, 7, 9))
        assert v.symbols == TRIPLE_75
        rep = verify_sequence(v)
        assert rep.max_auto == 3
        assert rep.min_gap == 5


def test_c03_recursive_golden_vectors():
    with criterion(3, "recursive golden vectors", 0.001):
        u42 = construct_recursive(RecursiveParams(21, 6, 9, PI_6))
        assert u42.symbols == RECURSIVE_42
        assert (max_auto(u42), min_gap(u42)) == (2, 5)
        u30 = construct_recursive(RecursiveParams(15, 6, 9, PI_6))
        assert u30.symbols == RECURSIVE_30
        assert (max_auto(u30), min_gap(u30)) == (2, 4)


def test_c04_pipeline_golden_vectors():
    with criterion(4, "pipeline golden vectors", 0.010):
        seed = b1_construct(B1Params(N=9))
        assert seed.symbols == B1_SEED_18
        u54 = pipeline_seed_to_wgfhs(seed, 27, 9, 18, lift_index=0)
        assert u54.symbols == PIPELINE_U54

        ctx = GfContext(5, (2, 4, 1))
        seed = cyclotomic_construct(CyclotomyParams(ctx, 12))
        assert seed.symbols == CYCLOTOMIC_SEED_24
        u72 = pipeline_seed_to_wgfhs(seed, 36, 12, 24, lift_index=0)
        assert u72.symbols == PIPELINE_U72

        seed = qr_construct(QrParams(5, 2, (0, 1), (1, 3)))
        assert seed.symbols == QR_SEED_10
        u50 = pipeline_seed_to_wgfhs(seed, 25, 5, 15, lift_index=0)
        assert u50.symbols == PIPELINE_U50

        for u, gap in ((u54, 4), (u72, 2), (u50, 4)):
            assert max_auto(u) == 2
            assert min_gap(u) == gap


def test_c05_recursive_correlation_equality():
    with criterion(5, "recursive correlation equals order sequence (500 random tuples)", 30.0):
        rng = random.Random(20250810)
        checked = 0
        while checked < 500:
            m = rng.randrange(2, 7)
            l1 = rng.randrange(3, 120 // m + 1, 2) if 120 // m >= 3 else 3
            l = m * l1
            if l > 120:
                continue
            us = units(l1)
            pairs = [(a, b) for a in us for b in us if a < b and math.gcd(b - a, l1) == 1]
            if not pairs:
                continue
            e1, e2 = rng.choice(pairs)
            d1, d2 = m * e1, m * e2
            pi = list(range(2 * m))
            rng.shuffle(pi)
            params = RecursiveParams(l, d1, d2, tuple(pi))
            u = construct_recursive(params)
            assert max_auto(u) == max_auto(params.order_seq.as_fhs()), (l, d1, d2, pi)
            if gap_condition(l, d1, d2):
                assert min_gap(u) == d1 - 1, (l, d1, d2, pi)
            checked += 1


def test_c06_row_correlation_statements():
    with criterion(6, "row and unit-step correlation statements (all l <= 60)", 30.0):
        # unit-step statement: the cross profile of two distinct admissible
        # decimations is identically 1; the auto profile vanishes off-peak
        pairs_checked = 0
        for l in range(3, 61):
            us = units(l)
            seqs = {d: ds_sequence(l, d) for d in us}
            for d in us:
                prof = auto_profile(seqs[d])
                assert prof.values[0] == l
                assert all(v == 0 for v in prof.values[1:])
            for i, a in enumerate(us):
                for b in us[i + 1:]:
                    if math.gcd(b - a, l) != 1:
                        continue
                    assert all(v == 1 for v in cross_profile(seqs[a], seqs[b]).values)
                    pairs_checked += 1
        assert pairs_checked > 5000

        # row statements for every shared-gcd tuple
        tuples_checked = 0
        for l in range(6, 61):
            for d1 in range(2, l):
                m = math.gcd(l, d1)
                if m < 2:
                    continue
                for d2 in range(d1 + 1, l):
                    if math.gcd(l, d2) != m or math.gcd(l, d2 - d1) != m:
                        continue
                    s_rows, t_rows = recursive_rows(l, d1, d2)
                    S = [Fhs(l, r) for r in s_rows]
                    T = [Fhs(l, r) for r in t_rows]
                    l1 = l // m
                    if l1 >= 2:
                        for row in S + T:
                            assert all(v == 0 for v in auto_profile(row).values[1:])
                    for j in range(m):
                        for k in range(m):
                            if j == k:
                                assert all(v == 1 for v in cross_profile(S[j], T[j]).values)
                            else:
                                assert max(cross_profile(S[j], S[k]).values) == 0
                                assert max(cross_profile(T[j], T[k]).values) == 0
                                assert max(cross_profile(S[j], T[k]).values) == 0
                    tuples_checked += 1
        assert tuples_checked > 1000


def test_c07_gap_bound_tightness():
    with criterion(7, "gap bound formula, builders, exhaustive confirmation", 60.0):
        # (a) two-branch formula across the whole grid
        for l in range(3, 65):
            for n in range(2, 129):
                wide = n % l != 0 and l % 2 == 0 and n % 2 == 0
                expected = l // 2 - 1 if wide else (l - 1) // 2 - 1
                assert gap_upper_bound(n, l).bound == expected

        # (b) every supported builder output attains the bound exactly
        supported = 0
        for l in range(3, 41):
            for n in range(2, 41):
                try:
                    s = extremal_sequence(n, l)
                except UnsupportedCaseError:
                    continue
                assert is_uniform(s)
                assert min_gap(s) == gap_upper_bound(n, l).bound, (n, l)
                supported += 1
        assert supported >= 900

        # (c) exhaustive search: no uniform sequence beats the bound once every
        # symbol must appear (n >= l); shorter sequences can avoid the
        # mid-alphabet pivot entirely and are checked as known exceptions
        for l in range(3, 9):
            for n in range(l, 13):
                assert exhaustive_max_min_gap(n, l) <= gap_upper_bound(n, l).bound, (n, l)
        assert exhaustive_max_min_gap(4, 8) > gap_upper_bound(4, 8).bound


def test_c08_order_sequence_table():
    with criterion(8, "order-sequence enumeration reproduces the published table", 5.0):
        report = enumerate_optimal_order_seqs(3)
        survivors = {s.symbols for s in report.survivors}
        assert survivors.issuperset(OPTIMAL_ORDER_SEQS_M3)
        published = {canonical_form(Fhs(3, entry)) for entry in OPTIMAL_ORDER_SEQS_M3}
        for s in report.survivors:
            assert canonical_form(s) in published


def test_c09_shifted_triple_counterexample():
    with criterion(9, "shifted triple loses optimality", 0.001):
        v = construct_triple(TripleParams(13, 4, 5, 7, 1, 3, 4, unchecked=True))
        assert max_auto(v) > 3


def test_c10_oracle_equivalence():
    with criterion(10, "brute-force oracle equals fast correlation", 10.0):
        rng = random.Random(424242)
        for _ in range(1000):
            n = rng.randrange(2, 65)
            l = rng.randrange(1, 20)
            s = Fhs(l, tuple(rng.randrange(l) for _ in range(n)))
            t = Fhs(l, tuple(rng.randrange(l) for _ in range(n)))
            assert brute_hamming_profile(s, t).values == cross_profile(s, t).values
        for l, golden in ((25, PAIR_50), (25, TRIPLE_75), (21, RECURSIVE_42), (15, RECURSIVE_30),
                          (27, PIPELINE_U54), (36, PIPELINE_U72), (25, PIPELINE_U50)):
            s = Fhs(l, golden)
            assert brute_hamming_profile(s).values == auto_profile(s).values


def test_c11_lifting():
    with criterion(11, "all liftings of the worked order sequence", 0.1):
        lifts = lift_order_seq(OrderSeq(3, (0, 0, 1, 2, 1, 2)))
        assert len(lifts) == 8
        assert set(lifts) == LIFTS_OF_001212
        for pi in lifts:
            u = construct_recursive(RecursiveParams(21, 6, 9, pi))
            assert max_auto(u) == 2
