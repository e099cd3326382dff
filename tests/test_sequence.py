import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhskit import (
    CorrelationProfile,
    Fhs,
    ParameterError,
    auto_profile,
    brute_hamming_profile,
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
from fhskit.sequence import _product_cost

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

    def test_refusals_quote_input_briefly(self):
        for args in ((3, (0, [[[[[[[[[[0]]]]]]]]]])), ("x" * 5000, (0,)), (3, (0, 10**5000)), (10**200, (-1,))):
            with pytest.raises(ParameterError) as caught:
                Fhs(*args)
            assert len(str(caught.value)) < 200
        with pytest.raises(ParameterError, match=r"^field 'l' must be an integer, got 'y+\.\.\.y+'$"):
            Fhs.from_json_dict({"l": "y" * 5000, "seq": [0]})

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


def _skewed(rng, n, l, counts):
    """A shuffled length-n sequence: symbol v appears counts[v] times, the rest
    of the slots hold symbols from len(counts) to l - 1, uniformly at random."""
    symbols = [v for v, c in enumerate(counts) for _ in range(c)]
    symbols += [rng.randrange(len(counts), l) for _ in range(n - len(symbols))]
    rng.shuffle(symbols)
    return Fhs(l, tuple(symbols))


class TestKernel:
    # cross_profile bins the pairs of a symbol with c_s(v) * c_t(v) <= _product_cost
    # and multiplies the rest; brute_hamming_profile is the independent reference.

    @pytest.mark.parametrize("n", [24, 60, 200, 400])
    def test_both_paths_match_brute_force(self, n):
        cost = _product_cost(n, 2)
        dense = next(c for c in range(n + 1) if c * c > cost)
        assert (dense - 1) ** 2 <= cost  # dense - 1 is the largest sparse count
        rng = random.Random(n)
        l = 4 + n // 8
        for _ in range(3):
            # symbol 0 just past the threshold, 1 just below it, 2 only in s
            # (absent from t), 3 frequent in s and sparse against t
            s = _skewed(rng, n, l, (dense, dense - 1, 3, n // 3))
            t = _skewed(rng, n, l, (dense, dense - 1, 0, 1))
            assert auto_profile(s).values == brute_hamming_profile(s).values
            assert cross_profile(s, t).values == brute_hamming_profile(s, t).values
            assert cross_profile(t, s).values == brute_hamming_profile(t, s).values

    def test_all_short_binary_pairs(self):
        # n = 1 is always sparse; from n = 2 a symbol that fills s and t is dense
        for n in (1, 2, 3, 4):
            for a, b in itertools.product(itertools.product((0, 1), repeat=n), repeat=2):
                s, t = Fhs(2, a), Fhs(2, b)
                assert cross_profile(s, t) == brute_hamming_profile(s, t), (a, b)

    @pytest.mark.parametrize("n", [65535, 65536])
    def test_field_width_edge(self, n):
        # one symbol: every shift matches everywhere, so H(tau) = n fills a
        # 16-bit field exactly at n = 2^16 - 1; from 2^16 the fields are 32-bit
        assert auto_profile(Fhs(1, (0,) * n)).values == (n,) * n

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda l: st.tuples(
        st.just(l),
        st.integers(1, 80).flatmap(lambda n: st.tuples(
            st.lists(st.integers(0, l - 1), min_size=n, max_size=n),
            st.lists(st.integers(0, l - 1), min_size=n, max_size=n),
        )),
    )))
    def test_matches_brute_force(self, case):
        l, (a, b) = case
        s, t = Fhs(l, tuple(a)), Fhs(l, tuple(b))
        assert cross_profile(s, t) == brute_hamming_profile(s, t)
        assert auto_profile(s) == brute_hamming_profile(s)


class TestCorrelationProfile:
    def test_refusals(self):
        for kind, values, message in (
            ("both", (1,), "kind must be 'auto' or 'cross', got 'both'"),
            ("cross", (), "profile must cover at least one shift"),
            ("cross", (0, 3), r"profile values must lie in \[0, n\]"),
            ("cross", (0, -1), r"profile values must lie in \[0, n\]"),
            ("auto", (2, 1, 1), r"auto profile must have H\(0\) = n"),
            ("auto", (4, 1, 2, 0), r"auto profile must satisfy H\(tau\) = H\(n - tau\)"),
        ):
            with pytest.raises(ParameterError, match=f"^{message}$"):
                CorrelationProfile(kind, values)

    def test_accepts_valid_profiles(self):
        assert CorrelationProfile("auto", [3, 1, 1]).values == (3, 1, 1)
        assert CorrelationProfile("cross", (0, 2, 1)).length == 3


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

    def test_memory_follows_length_not_alphabet(self):
        tracemalloc.start()
        try:
            assert is_uniform(Fhs(10**6, (5,)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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
