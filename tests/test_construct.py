import math
import random

import pytest

from fhskit import (
    Fhs,
    OrderSeq,
    PairParams,
    ParameterError,
    RecursiveParams,
    TripleParams,
    auto_profile,
    brute_hamming_profile,
    construct_pair,
    construct_recursive,
    construct_triple,
    ds_sequence,
    gap_condition,
    is_uniform,
    lift_order_seq,
    max_auto,
    min_gap,
    pi_m,
    recursive_rows,
    unit_step_min_gap,
)

from vectors import LIFTS_OF_001212, PAIR_50, PI_6, RECURSIVE_30, RECURSIVE_42, TRIPLE_75


class TestDsSequence:
    def test_step_seven(self):
        assert ds_sequence(25, 7).symbols == PAIR_50[:25]

    def test_zero_step_is_constant(self):
        assert ds_sequence(7, 0, 3, 5).symbols == (3, 3, 3, 3, 3)

    def test_step_two_over_z9(self):
        assert ds_sequence(9, 2).symbols == (0, 2, 4, 6, 8, 1, 3, 5, 7)

    def test_offset_validation(self):
        with pytest.raises(ParameterError):
            ds_sequence(9, 2, offset=9)
        with pytest.raises(ParameterError):
            ds_sequence(9, 2, length=0)


class TestPair:
    def test_golden_vector(self):
        assert construct_pair(PairParams(25, 7, 9)).symbols == PAIR_50

    def test_gap_formula(self):
        assert unit_step_min_gap(11, (1, 2)) == 0
        assert PairParams(25, 7, 9).guaranteed_gap == 6
        assert PairParams(25, 7, 9, 1, 0).guaranteed_gap is None

    def test_offsets_keep_correlation_optimal(self):
        v = construct_pair(PairParams(13, 3, 5, 2, 11))
        assert max(brute_hamming_profile(v).values[1:]) == 2

    def test_random_offsets_keep_correlation_optimal(self):
        rng = random.Random(3)
        for _ in range(25):
            l = rng.choice((11, 13, 25, 27))
            du = [d for d in range(1, l) if math.gcd(d, l) == 1]
            d1, d2 = rng.sample(du, 2)
            if math.gcd(abs(d2 - d1), l) != 1:
                continue
            params = PairParams(l, d1, d2, rng.randrange(l), rng.randrange(l))
            v = construct_pair(params)
            assert max_auto(v) == params.guaranteed_max_auto == 2
            assert is_uniform(v)

    def test_zero_offset_gap_matches_formula(self):
        rng = random.Random(12)
        for _ in range(40):
            l = rng.choice((11, 13, 21, 25, 27))
            du = [d for d in range(2, l - 1) if math.gcd(d, l) == 1]
            d1, d2 = sorted(rng.sample(du, 2))
            if math.gcd(d2 - d1, l) != 1:
                continue
            v = construct_pair(PairParams(l, d1, d2))
            assert min_gap(v) == unit_step_min_gap(l, (d1, d2))
            assert is_uniform(v)

    def test_validation(self):
        with pytest.raises(ParameterError):
            PairParams(25, 7, 7)
        with pytest.raises(ParameterError):
            PairParams(25, 5, 7)  # 5 shares a factor with 25
        with pytest.raises(ParameterError):
            PairParams(25, 2, 7)  # difference 5 is not a unit
        with pytest.raises(ParameterError):
            PairParams(25, 7, 9, i1=25)


class TestTriple:
    def test_golden_vector(self):
        v = construct_triple(TripleParams(25, 6, 7, 9))
        assert v.symbols == TRIPLE_75
        assert max_auto(v) == 3
        assert min_gap(v) == 5

    def test_small_instance(self):
        params = TripleParams(11, 2, 3, 5)
        v = construct_triple(params)
        assert params.guaranteed_gap == 1
        assert max(brute_hamming_profile(v).values[1:]) == params.guaranteed_max_auto == 3
        assert min_gap(v) == 1
        assert is_uniform(v)

    def test_offsets_require_explicit_opt_out(self):
        with pytest.raises(ParameterError, match="unchecked"):
            TripleParams(13, 4, 5, 7, 1, 3, 4)
        params = TripleParams(13, 4, 5, 7, 1, 3, 4, unchecked=True)
        v = construct_triple(params)
        assert max_auto(v) > 3  # the correlation promise really does break
        assert (params.guaranteed_max_auto, params.guaranteed_gap) == (None, None)
        assert params.constraints == "d1,d2,d3 in DU(Z_l)"
        zero = TripleParams(25, 6, 7, 9, unchecked=True)
        assert (zero.guaranteed_max_auto, zero.guaranteed_gap) == (3, 5)

    def test_validation(self):
        with pytest.raises(ParameterError):
            TripleParams(25, 6, 7, 12)  # 12 - 7 = 5 shares a factor with 25
        with pytest.raises(ParameterError):
            TripleParams(25, 6, 7, 9, 0, 25, 0, unchecked=True)


class TestRecursiveRows:
    def test_rows_l21(self):
        s_rows, t_rows = recursive_rows(21, 6, 9)
        assert s_rows[0] == (0, 6, 12, 18, 3, 9, 15)
        assert t_rows[0] == (0, 9, 18, 6, 15, 3, 12)

    def test_rows_l15(self):
        s_rows, t_rows = recursive_rows(15, 6, 9)
        assert s_rows[0] == (0, 6, 12, 3, 9)
        assert t_rows[0] == (0, 9, 3, 12, 6)

    def test_row_j_is_row_zero_plus_j(self):
        s_rows, t_rows = recursive_rows(21, 6, 9)
        for j in (1, 2):
            assert s_rows[j] == tuple((v + j) % 21 for v in s_rows[0])
            assert t_rows[j] == tuple((v + j) % 21 for v in t_rows[0])

    def test_gcd_validation(self):
        with pytest.raises(ParameterError):
            RecursiveParams(21, 6, 9, PI_6, m=7)
        with pytest.raises(ParameterError):
            recursive_rows(21, 6, 8)  # gcds 3, 1, 2 differ
        with pytest.raises(ParameterError):
            recursive_rows(21, 1, 8)  # d1 below 2


class TestPiM:
    def test_worked_example(self):
        assert pi_m(PI_6, 3).symbols == (0, 0, 1, 2, 1, 2)

    def test_identity(self):
        assert pi_m(tuple(range(8)), 4).symbols == (0, 1, 2, 3, 0, 1, 2, 3)

    def test_ten_entry(self):
        assert pi_m((0, 3, 4, 2, 1, 5, 6, 7, 9, 8), 5).symbols == (0, 3, 4, 2, 1, 0, 1, 2, 4, 3)

    def test_rejects_non_permutation(self):
        with pytest.raises(ParameterError):
            pi_m((0, 0, 1, 2, 4, 5), 3)


class TestConstructRecursive:
    def test_golden_42(self):
        u = construct_recursive(RecursiveParams(21, 6, 9, PI_6))
        assert u.symbols == RECURSIVE_42
        assert max_auto(u) == 2
        assert min_gap(u) == 5

    def test_golden_30(self):
        u = construct_recursive(RecursiveParams(15, 6, 9, PI_6))
        assert u.symbols == RECURSIVE_30
        assert max_auto(u) == 2
        assert min_gap(u) == 4

    def test_gap_condition(self):
        assert gap_condition(21, 6, 9)
        assert not gap_condition(15, 6, 9)
        assert gap_condition(25, 5, 15)

    def test_output_always_uniform(self):
        for l, d1, d2 in ((21, 6, 9), (15, 6, 9), (27, 9, 18), (25, 5, 15)):
            params = RecursiveParams(l, d1, d2, tuple(range(2 * math.gcd(l, d1))))
            assert is_uniform(construct_recursive(params))

    def test_block_shift_identity(self):
        # at whole-block shifts the correlation equals that of the order sequence
        params = RecursiveParams(21, 6, 9, PI_6)
        u = construct_recursive(params)
        order_fhs = params.order_seq.as_fhs()
        l1 = 7
        u_prof = auto_profile(u)
        o_prof = auto_profile(order_fhs)
        for r in range(1, 6):
            assert u_prof.values[r * l1] == o_prof.values[r]

    def test_correlation_matches_order_sequence_randomized(self):
        rng = random.Random(99)
        for _ in range(60):
            m = rng.randrange(2, 6)
            l1 = rng.choice((3, 5, 7, 9))
            l = m * l1
            us = [e for e in range(1, l1) if math.gcd(e, l1) == 1]
            pairs = [(a, b) for a in us for b in us if a < b and math.gcd(b - a, l1) == 1]
            if not pairs:
                continue
            e1, e2 = rng.choice(pairs)
            pi = list(range(2 * m))
            rng.shuffle(pi)
            params = RecursiveParams(l, m * e1, m * e2, tuple(pi))
            u = construct_recursive(params)
            assert max_auto(u) == params.guaranteed_max_auto == max_auto(params.order_seq.as_fhs())
            if gap_condition(l, m * e1, m * e2):
                assert min_gap(u) == m * e1 - 1

    def test_m_one_is_rejected(self):
        with pytest.raises(ParameterError, match="pair construction"):
            RecursiveParams(25, 7, 9, (0, 1))


class TestShiftedVariant:
    def test_zero_shift_is_identity(self):
        params = RecursiveParams(21, 6, 9, PI_6)
        assert construct_recursive(RecursiveParams(21, 6, 9, PI_6, shift=0)) == construct_recursive(params)

    def test_shifted_correlation_unchanged(self):
        for k in (1, 5, 20):
            params = RecursiveParams(21, 6, 9, PI_6, shift=k)
            assert max_auto(construct_recursive(params)) == params.guaranteed_max_auto == 2
            assert params.guaranteed_gap is None
            assert params.constraints.endswith(", d1+d2<l-m+2")

    def test_shifted_rows_are_rotations(self):
        s_rows, _ = recursive_rows(21, 6, 9)
        k = 1
        shifted = [tuple((v + k) % 21 for v in row) for row in s_rows]

        def rotations(row):
            return {row[i:] + row[:i] for i in range(len(row))}

        for j in range(3):
            assert shifted[j] in rotations(s_rows[(j + k) % 3])

    def test_shift_range(self):
        with pytest.raises(ParameterError):
            RecursiveParams(21, 6, 9, PI_6, shift=21)


class TestLifting:
    def test_worked_example_set(self):
        lifts = lift_order_seq(OrderSeq(3, (0, 0, 1, 2, 1, 2)))
        assert len(lifts) == 8
        assert set(lifts) == LIFTS_OF_001212
        assert lifts[0] == (0, 3, 1, 2, 4, 5)  # all-zero choice word comes first

    def test_m_one(self):
        assert lift_order_seq(OrderSeq(1, (0, 0))) == [(0, 1), (1, 0)]

    def test_round_trip(self):
        order = OrderSeq(3, (0, 1, 2, 0, 2, 1))
        for pi in lift_order_seq(order):
            assert pi_m(pi, 3) == order

    def test_order_seq_validation(self):
        with pytest.raises(ParameterError):
            OrderSeq(3, (0, 0, 0, 2, 1, 2))
        with pytest.raises(ParameterError):
            OrderSeq(3, (0, 0, 1, 2, 1))
