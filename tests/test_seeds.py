import pytest

from fhskit import (
    B1Params,
    CyclotomyParams,
    Fhs,
    GfContext,
    ParameterError,
    QrParams,
    SearchSpaceError,
    b1_construct,
    brute_hamming_profile,
    cyclotomic_construct,
    frequency_counts,
    is_uniform,
    is_valid_b,
    lg_bound,
    max_auto,
    min_gap,
    pipeline_seed_to_wgfhs,
    qr_construct,
    valid_b_patterns,
)

from vectors import (
    B1_SEED_10,
    B1_SEED_18,
    CYCLOTOMIC_SEED_4,
    CYCLOTOMIC_SEED_24,
    PIPELINE_U50,
    PIPELINE_U54,
    PIPELINE_U72,
    QR_SEED_10,
    QR_SEED_10_ALT,
)


class TestB1:
    def test_golden_vector_n9(self):
        y = b1_construct(B1Params(N=9))
        assert y.symbols == B1_SEED_18
        assert max_auto(y) == 2
        assert is_uniform(y)
        assert min_gap(y) == -1  # adjacent repeats: the gap is not controlled here

    def test_small_instance_n5(self):
        y = b1_construct(B1Params(N=5))
        assert y.symbols == B1_SEED_10
        assert max(brute_hamming_profile(y).values[1:]) == 2

    def test_default_family(self):
        for n in (5, 7, 9, 11, 13, 15):
            y = b1_construct(B1Params(N=n))
            assert y.n == 2 * n
            assert is_uniform(y)
            assert max_auto(y) == 2

    def test_validation(self):
        with pytest.raises(ParameterError):
            B1Params(N=9, k=3)  # k exceeds p1 - 1 = 2
        with pytest.raises(ParameterError):
            B1Params(N=9, epsilon=(1, 4))  # difference 3 shares a factor with 9
        with pytest.raises(ParameterError):
            B1Params(N=9, epsilon=(1, 1))
        with pytest.raises(ParameterError):
            B1Params(N=9, phi=tuple(range(8)))
        with pytest.raises(ParameterError):
            B1Params(N=9, gamma=(0,))


class TestCyclotomic:
    def test_golden_vector_gf25(self):
        ctx = GfContext(5, (2, 4, 1))
        y = cyclotomic_construct(CyclotomyParams(ctx, 12))
        assert y.symbols == CYCLOTOMIC_SEED_24
        assert is_uniform(y)
        assert all(c == 2 for c in frequency_counts(y).values())

    def test_prime_field_instance(self):
        ctx = GfContext(5, (3, 1))
        y = cyclotomic_construct(CyclotomyParams(ctx, 2))
        assert y.symbols == CYCLOTOMIC_SEED_4
        assert max_auto(y) == lg_bound(4, 2) == 2

    def test_symbol_counts_and_optimality(self):
        cases = ((GfContext(5, (3, 1)), 2), (GfContext(13, (11, 1)), 4), (GfContext(5, (2, 4, 1)), 12))
        for ctx, e in cases:
            params = CyclotomyParams(ctx, e)
            y = cyclotomic_construct(params)
            assert set(frequency_counts(y).values()) == {params.f}
            assert max_auto(y) == lg_bound(y.n, e) == params.f

    def test_special_log_default(self):
        assert CyclotomyParams(GfContext(5, (2, 4, 1)), 12).special_log == 12
        assert CyclotomyParams(GfContext(2, (1, 1, 1)), 3).special_log == 0

    def test_class_count_must_divide(self):
        with pytest.raises(ParameterError):
            CyclotomyParams(GfContext(5, (2, 4, 1)), 7)


class TestQr:
    def test_golden_vector(self):
        params = QrParams(5, 2, (0, 1), (1, 3))
        assert params.residue_classes() == ({1, 4}, {2, 3})
        y = qr_construct(params)
        assert y.symbols == QR_SEED_10
        assert is_uniform(y)
        assert max_auto(y) == 2

    def test_alternative_picks_stay_uniform(self):
        y = qr_construct(QrParams(5, 2, (0, 1), (4, 2)))
        assert y.symbols == QR_SEED_10_ALT
        assert is_uniform(y)
        assert set(frequency_counts(y).values()) == {2}

    def test_non_uniform_instance_reported(self):
        y = qr_construct(QrParams(5, 3, (0, 1, 1), (1, 2, 3)))
        counts = frequency_counts(y)
        assert counts == {0: 3, 1: 2, 2: 4, 3: 4, 4: 2}
        assert not is_uniform(y)

    def test_pattern_examples(self):
        assert is_valid_b((0, 1))
        assert not is_valid_b((0, 0))
        assert is_valid_b((0, 0, 1, 1))

    def test_pattern_enumeration(self):
        assert (0, 1) in valid_b_patterns(2)
        assert all(is_valid_b(b) for b in valid_b_patterns(4))
        with pytest.raises(SearchSpaceError):
            valid_b_patterns(9)

    def test_validation(self):
        with pytest.raises(ParameterError):
            QrParams(9, 2, (0, 1), (1, 2))  # 9 is not prime
        with pytest.raises(ParameterError):
            QrParams(5, 2, (0, 0), (1, 4))  # invalid pattern
        with pytest.raises(ParameterError):
            QrParams(5, 2, (0, 1), (2, 3))  # 2 is not a quadratic residue mod 5
        with pytest.raises(ParameterError):
            QrParams(5, 2, (0, 1), (1, 1))
        with pytest.raises(ParameterError):
            QrParams(5, 2, (0, 1), (1, 3), alpha=4)  # 4 has order 2


class TestPipeline:
    def test_b1_application(self):
        seed = b1_construct(B1Params(N=9))
        u = pipeline_seed_to_wgfhs(seed, 27, 9, 18, lift_index=0)
        assert u.symbols == PIPELINE_U54
        assert max_auto(u) == 2
        assert min_gap(u) == 4

    def test_cyclotomic_application(self):
        seed = cyclotomic_construct(CyclotomyParams(GfContext(5, (2, 4, 1)), 12))
        u = pipeline_seed_to_wgfhs(seed, 36, 12, 24, lift_index=0)
        assert u.symbols == PIPELINE_U72
        assert max_auto(u) == 2
        assert min_gap(u) == 2

    def test_qr_application(self):
        seed = qr_construct(QrParams(5, 2, (0, 1), (1, 3)))
        u = pipeline_seed_to_wgfhs(seed, 25, 5, 15, lift_index=0)
        assert u.symbols == PIPELINE_U50
        assert max_auto(u) == 2
        assert min_gap(u) == 4  # the gap condition holds, so the gap is d1 - 1

    def test_correlation_independent_of_lift_index(self):
        seed = qr_construct(QrParams(5, 2, (0, 1), (1, 3)))
        for lift_index in (0, 1, 7, 19, 31):
            u = pipeline_seed_to_wgfhs(seed, 25, 5, 15, lift_index=lift_index)
            assert max_auto(u) == 2

    def test_seed_must_be_optimal(self):
        with pytest.raises(ParameterError):
            pipeline_seed_to_wgfhs(Fhs(2, (0, 1, 0, 1)), 6, 2, 4)

    def test_seed_shape_must_match_parameters(self):
        seed = qr_construct(QrParams(5, 2, (0, 1), (1, 3)))  # m = 5
        with pytest.raises(ParameterError):
            pipeline_seed_to_wgfhs(seed, 21, 6, 9)  # these need m = 3

    def test_lift_index_range(self):
        seed = qr_construct(QrParams(5, 2, (0, 1), (1, 3)))
        with pytest.raises(ParameterError):
            pipeline_seed_to_wgfhs(seed, 25, 5, 15, lift_index=32)
