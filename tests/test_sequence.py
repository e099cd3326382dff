import random

import pytest

from fhskit import (
    Fhs,
    ParameterError,
    auto_profile,
    construct_pair,
    cross_profile,
    ds_sequence,
    frequency_counts,
    is_uniform,
    lg_bound,
    max_auto,
    min_gap,
    sorted_alphabet_gap_bound,
    verify_sequence,
    wg_lg_bound,
)
from fhskit.construct import PairParams

from vectors import B1_SEED_18, PAIR_50, PIPELINE_U50, RECURSIVE_42


def _naive_hamming(s, t, tau):
    n = s.n
    return sum(1 for i in range(n) if s.symbols[i] == t.symbols[(i + tau) % n])


def _hamming_distance(a, b):
    return sum(1 for x, y in zip(a, b) if x != y)


class TestFhs:
    def test_validation(self):
        with pytest.raises(ParameterError):
            Fhs(0, (0,))
        with pytest.raises(ParameterError):
            Fhs(3, ())
        with pytest.raises(ParameterError, match="index 2"):
            Fhs(3, (0, 1, 3))
        with pytest.raises(ParameterError, match="index 1"):
            Fhs(3, (0, 1.5, 2))

    def test_json_round_trip(self):
        s = Fhs(25, PAIR_50)
        assert Fhs.from_json_dict(s.to_json_dict()) == s
        with pytest.raises(ParameterError):
            Fhs.from_json_dict({"l": 3})
        with pytest.raises(ParameterError):
            Fhs.from_json_dict({"l": "3", "seq": [0]})

    def test_shift_and_relabel(self):
        s = Fhs(3, (0, 1, 2, 0))
        assert s.shifted(1).symbols == (1, 2, 0, 0)
        assert s.relabeled((2, 1, 0)).symbols == (2, 1, 0, 2)
        with pytest.raises(ParameterError):
            s.relabeled((0, 0, 1))


class TestHammingCross:
    # H_{s,t}(tau) is cross_profile(s, t).values[tau]
    def test_zero_shift_is_length(self):
        s = Fhs(25, PAIR_50)
        assert cross_profile(s, s).values[0] == s.n

    def test_unit_step_rows_always_meet_once(self):
        s7 = ds_sequence(25, 7)
        s9 = ds_sequence(25, 9)
        assert cross_profile(s7, s9).values == (1,) * 25

    def test_fixed_pair_matches_naive_count(self):
        s = Fhs(3, (0, 1, 2, 0, 1, 2))
        t = Fhs(3, (0, 0, 1, 2, 2, 1))
        values = cross_profile(s, t).values
        assert values == (1, 4, 1, 1, 4, 1)
        for tau in range(6):
            assert values[tau] == _naive_hamming(s, t, tau)

    def test_errors(self):
        s = Fhs(3, (0, 1, 2))
        with pytest.raises(ParameterError, match="alphabet"):
            cross_profile(s, Fhs(4, (0, 1, 2)))
        with pytest.raises(ParameterError, match="length"):
            cross_profile(s, Fhs(3, (0, 1)))

    def test_equals_length_minus_hamming_distance(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randrange(2, 20)
            l = rng.randrange(2, 8)
            s = Fhs(l, tuple(rng.randrange(l) for _ in range(n)))
            t = Fhs(l, tuple(rng.randrange(l) for _ in range(n)))
            values = cross_profile(s, t).values
            for tau in range(n):
                assert values[tau] == n - _hamming_distance(s.symbols, t.shifted(tau).symbols)


class TestMaxAuto:
    def test_example_pair_sequence(self):
        assert max_auto(Fhs(25, PAIR_50)) == 2

    def test_constant_sequence(self):
        assert max_auto(Fhs(5, (3,) * 7)) == 7

    def test_recursive_example(self):
        assert max_auto(Fhs(21, RECURSIVE_42)) == 2

    def test_length_one_rejected(self):
        with pytest.raises(ParameterError):
            max_auto(Fhs(2, (0,)))


class TestProfiles:
    def test_auto_symmetry(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randrange(2, 24)
            l = rng.randrange(1, 9)
            s = Fhs(l, tuple(rng.randrange(l) for _ in range(n)))
            prof = auto_profile(s)
            assert prof.kind == "auto"
            assert prof.values[0] == n
            for tau in range(1, n):
                assert prof.values[tau] == prof.values[n - tau]

    def test_shift_invariance(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randrange(2, 24)
            l = rng.randrange(1, 9)
            s = Fhs(l, tuple(rng.randrange(l) for _ in range(n)))
            t = Fhs(l, tuple(rng.randrange(l) for _ in range(n)))
            r = rng.randrange(n)
            assert cross_profile(s, t).values == cross_profile(s.shifted(r), t.shifted(r)).values

    def test_relabel_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(2, 24)
            l = rng.randrange(2, 9)
            s = Fhs(l, tuple(rng.randrange(l) for _ in range(n)))
            t = Fhs(l, tuple(rng.randrange(l) for _ in range(n)))
            perm = list(range(l))
            rng.shuffle(perm)
            assert cross_profile(s, t).values == cross_profile(s.relabeled(perm), t.relabeled(perm)).values

    def test_sum_rule(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randrange(2, 24)
            l = rng.randrange(1, 9)
            s = Fhs(l, tuple(rng.randrange(l) for _ in range(n)))
            t = Fhs(l, tuple(rng.randrange(l) for _ in range(n)))
            ns, nt = frequency_counts(s), frequency_counts(t)
            assert sum(cross_profile(s, t).values) == sum(ns[f] * nt[f] for f in range(l))


class TestMinGap:
    def test_staircase(self):
        for l in (2, 5, 9):
            assert min_gap(Fhs(l, tuple(range(l)))) == 0

    def test_adjacent_repeat_gives_minus_one(self):
        assert min_gap(Fhs(9, B1_SEED_18)) == -1

    def test_example_pair_sequence(self):
        assert min_gap(Fhs(25, PAIR_50)) == 6

    def test_length_one_rejected(self):
        with pytest.raises(ParameterError):
            min_gap(Fhs(2, (0,)))


class TestUniform:
    def test_balanced(self):
        assert is_uniform(Fhs(3, (0, 1, 2, 0, 1, 2)))

    def test_order_sequence(self):
        assert is_uniform(Fhs(3, (0, 0, 1, 2, 1, 2)))

    def test_spread_two(self):
        assert not is_uniform(Fhs(3, (0, 0, 0, 1, 2)))

    def test_absent_symbols_count_zero(self):
        assert is_uniform(Fhs(4, (0, 1, 2)))
        assert not is_uniform(Fhs(4, (0, 0, 1)))


class TestLgBound:
    def test_examples(self):
        assert lg_bound(50, 25) == 2
        assert lg_bound(75, 25) == 3
        for n, l in ((3, 5), (10, 10), (7, 100)):
            assert lg_bound(n, l) == 0

    def test_matches_simplified_form(self):
        # ceil((n-eps)(n+eps-l)/(l(n-1))) must equal n//l for n > l and 0 otherwise
        for l in range(1, 201):
            for n in range(2, 201):
                expected = n // l if n > l else 0
                assert lg_bound(n, l) == expected, (n, l)

    def test_multiple_lengths(self):
        for k in range(2, 7):
            for l in range(1, 30):
                assert lg_bound(k * l, l) == k

    def test_degenerate_length(self):
        assert lg_bound(1, 5) == 0
        with pytest.raises(ParameterError):
            lg_bound(0, 5)


class TestWgLgBound:
    def test_examples(self):
        assert wg_lg_bound(50, 25) == 2
        assert wg_lg_bound(10, 5) == 2

    def test_multiple_lengths(self):
        # for n = k*l with k >= 2 and l >= 3 both correlation bounds reduce to k
        for k in range(2, 7):
            for l in range(3, 30):
                assert wg_lg_bound(k * l, l) == k == lg_bound(k * l, l)

    def test_short_lengths_rejected(self):
        for n in (1, 2, 3):
            with pytest.raises(ParameterError):
                wg_lg_bound(n, 5)


class TestOptimality:
    # optimal: the maximum autocorrelation meets the Lempel-Greenberger bound
    def test_example_pair_sequence(self):
        assert verify_sequence(Fhs(25, PAIR_50)).is_optimal is True

    def test_constant_not_optimal(self):
        assert verify_sequence(Fhs(2, (0, 0, 0, 0))).is_optimal is False

    def test_pipeline_output(self):
        assert verify_sequence(Fhs(25, PIPELINE_U50)).is_optimal is True


class TestSortedAlphabetGapBound:
    def test_identity_spacing(self):
        v = construct_pair(PairParams(25, 7, 9))
        assert sorted_alphabet_gap_bound(v, list(range(25))) == min_gap(v) == 6

    def test_double_spacing(self):
        v = construct_pair(PairParams(25, 7, 9))
        assert sorted_alphabet_gap_bound(v, [2 * i for i in range(25)]) == 13

    def test_four_frequencies(self):
        s = Fhs(4, (0, 2, 0, 2))
        assert sorted_alphabet_gap_bound(s, [0, 5, 10, 15]) == 9

    def test_non_increasing_rejected(self):
        s = Fhs(3, (0, 1, 2))
        with pytest.raises(ParameterError):
            sorted_alphabet_gap_bound(s, [0, 2, 2])
        with pytest.raises(ParameterError):
            sorted_alphabet_gap_bound(s, [0, 1])
