import math
from itertools import combinations, product

import pytest

from fhskit import (
    B1Params,
    DuSet,
    GfContext,
    PairParams,
    ParameterError,
    TripleParams,
    canonical_du,
    du_violation,
    factorize,
    is_du,
)
from fhskit.numtheory import smallest_prime_factor, units
from fhskit.seeds import CyclotomyParams, cyclotomic_construct

from gf_reference import RefField, reference_cyclotomic


class TestFactorize:
    def test_examples(self):
        assert factorize(25) == [(5, 2)]
        assert factorize(21) == [(3, 1), (7, 1)]
        assert factorize(36) == [(2, 2), (3, 2)]

    def test_round_trip_and_order(self):
        for n in range(2, 500):
            factors = factorize(n)
            assert math.prod(p**e for p, e in factors) == n
            assert [p for p, _ in factors] == sorted({p for p, _ in factors})

    def test_rejects_small(self):
        with pytest.raises(ParameterError):
            factorize(1)


class TestDuSets:
    def test_canonical_examples(self):
        assert canonical_du(25).elements == (1, 2, 3, 4)
        assert canonical_du(7).elements == (1, 2, 3, 4, 5, 6)
        assert canonical_du(21).elements == (1, 2)
        with pytest.raises(ParameterError):
            canonical_du(2)

    def test_is_du_examples(self):
        assert is_du(25, {3, 6, 7, 9})
        assert is_du(25, {1, 2, 3, 4})
        assert not is_du(25, {1, 2, 3})  # 4 can still be added
        assert not is_du(25, {1, 5, 2, 3})  # 5 is not a unit
        with pytest.raises(ParameterError):
            is_du(25, {0, 1})

    def test_canonical_always_validates(self):
        for l in range(3, 80):
            assert is_du(l, canonical_du(l).elements)

    def test_violation_names_the_offender(self):
        assert du_violation(25, (7, 9)) is None
        assert du_violation(25, (5, 9)) == "5 is not a unit modulo 25"
        assert du_violation(25, (1, 6)) == "1, 6 differ by 5, which is not a unit modulo 25"
        assert du_violation(25, (7, 7)) == "7, 7 differ by 0, which is not a unit modulo 25"
        assert du_violation(25, (26,)) == "26 is out of range [1, 24]"

    @pytest.mark.parametrize("l", range(3, 31))
    def test_every_check_agrees_with_du_violation(self, l):
        # every subset of Z_l of size <= 3: the step and epsilon checks accept
        # exactly what du_violation accepts, and is_du adds maximality, here
        # tested by trying every unit that could still join
        def accepts(build, *args, **kwargs):
            try:
                build(*args, **kwargs)
            except ParameterError:
                return False
            return True

        steps_params = {1: None, 2: PairParams, 3: TripleParams}
        for size, params in steps_params.items():
            for subset in combinations(range(l), size):
                admissible = du_violation(l, subset) is None
                assert accepts(B1Params, N=l, k=size, epsilon=subset) == admissible, (l, subset)
                if params is not None:
                    assert accepts(params, l, *subset) == admissible, (l, subset)
                if 0 in subset:
                    with pytest.raises(ParameterError):
                        is_du(l, subset)
                    continue
                maximal = admissible and all(
                    du_violation(l, subset + (x,)) is not None for x in units(l) if x not in subset
                )
                assert is_du(l, subset) == maximal, (l, subset)

    def test_duset_constructor_rejects_invalid(self):
        with pytest.raises(ParameterError):
            DuSet(25, (1, 2, 3))
        with pytest.raises(ParameterError):
            DuSet(25, (1, 1, 2, 3, 4))  # a repeat differs from itself by the non-unit 0

    def test_small_moduli_no_larger_admissible_subset(self):
        # full subset scan: nothing bigger than p1 - 1 has pairwise unit differences
        for l in range(3, 15):
            target = smallest_prime_factor(l) - 1
            us = units(l)
            for extra in combinations(us, target + 1):
                ok = all(math.gcd(b - a, l) == 1 for a, b in combinations(extra, 2))
                ok = ok and all(math.gcd(x, l) == 1 for x in extra)
                assert not ok, (l, extra)

    def test_no_oversized_clique_up_to_60(self):
        # complete branch-and-bound: no clique of size p1 in the unit-difference graph
        for l in range(3, 61):
            target = smallest_prime_factor(l)
            us = units(l)

            def extend(chosen, candidates):
                if len(chosen) == target:
                    return True
                for idx, v in enumerate(candidates):
                    if len(chosen) + len(candidates) - idx < target:
                        return False
                    narrowed = [w for w in candidates[idx + 1:] if math.gcd(w - v, l) == 1]
                    if extend(chosen + [v], narrowed):
                        return True
                return False

            assert not extend([], us), l


class TestGfContext:
    def test_prime_field_log(self):
        ctx = GfContext(5, (3, 1))  # modulus x - 2, so omega is 2
        assert ctx.omega == (2,)
        assert ctx.log(ctx.one) == 0
        assert ctx.log((2,)) == 1

    def test_gf25_generator_order(self):
        ctx = GfContext(5, (2, 4, 1))
        ref = RefField(5, (2, 4, 1))
        assert ctx.omega == ref.x
        powers = [ref.pow(ctx.omega, k) for k in range(1, 25)]
        assert powers[-1] == ctx.one
        assert all(p != ctx.one for p in powers[:-1])

    def test_exp_is_homomorphism(self):
        ctx = GfContext(5, (2, 4, 1))
        ref = RefField(5, (2, 4, 1))
        for a in range(24):
            for b in range(24):
                assert ref.mul(ctx.exp(a), ctx.exp(b)) == ctx.exp((a + b) % 24)

    def test_log_exp_round_trip(self):
        ctx = GfContext(5, (2, 4, 1))
        for k in range(24):
            assert ctx.log(ctx.exp(k)) == k

    def test_log_table_is_bijection(self):
        ctx = GfContext(5, (2, 4, 1))
        nonzero = set(RefField(5, (2, 4, 1)).elements()) - {ctx.zero}
        assert {ctx.exp(k) for k in range(24)} == nonzero

    def test_field_axioms_gf25(self):
        ctx = GfContext(5, (2, 4, 1))
        ref = RefField(5, (2, 4, 1))
        els = ref.elements()
        for a in els:
            for b in els:
                assert ref.add(a, b) == ref.add(b, a)
                assert ref.mul(a, b) == ref.mul(b, a)
                for c in els[:5]:
                    assert ref.mul(ref.mul(a, b), c) == ref.mul(a, ref.mul(b, c))
                    assert ref.mul(a, ref.add(b, c)) == ref.add(ref.mul(a, b), ref.mul(a, c))
            if a != ctx.zero:
                assert ref.mul(a, ctx.exp(-ctx.log(a))) == ctx.one

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_accepted_moduli_are_exactly_the_primitive_ones(self, p):
        # no accepted modulus is a product of smaller monic polynomials, and
        # each degree d accepts phi(p^d - 1) / d moduli, the number of
        # primitive polynomials
        top = 3 if p == 5 else 4

        def monic(degree):
            return [tail + (1,) for tail in product(range(p), repeat=degree)]

        def times(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
            return tuple(out)

        def totient(n):
            return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

        reducible = {
            times(a, b)
            for da in range(1, top)
            for db in range(da, top + 1 - da)
            for a in monic(da)
            for b in monic(db)
        }
        for degree in range(1, top + 1):
            accepted = []
            for mod in monic(degree):
                try:
                    GfContext(p, mod)
                except ParameterError:
                    continue
                accepted.append(mod)
            assert not reducible.intersection(accepted), degree
            assert len(accepted) == totient(p**degree - 1) // degree, degree

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_tables_match_reference_powers(self, p):
        # every monic modulus of degree <= 4 with a nonzero constant term: the
        # primitive ones build, and their exp/log tables are the powers of x
        # in the reference arithmetic; the others are refused
        for degree in range(1, 5):
            for tail in product(range(p), repeat=degree):
                mod = tail + (1,)
                ref = RefField(p, mod)
                if mod[0] == 0 or not ref.x_is_primitive():
                    with pytest.raises(ParameterError, match="not primitive"):
                        GfContext(p, mod)
                    continue
                ctx = GfContext(p, mod)
                assert (ctx.zero, ctx.one, ctx.omega) == (ref.zero, ref.one, ref.x)
                for k, w in enumerate(ref.powers_of_x()):
                    assert ctx.exp(k) == w, (mod, k)
                    assert ctx.log(w) == k, (mod, k)
                for k in (0, 1, ref.q - 2, ref.q - 1, 5 * ref.q):
                    assert ctx.exp(k) == ref.pow(ref.x, k), (mod, k)

    @pytest.mark.parametrize(
        "p, modulus",
        (
            (2, (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,)),  # GF(2^16): the XOR path
            (3, (2, 1, 2, 1, 2, 2, 2, 2, 0, 1, 1)),  # GF(3^10): 40 bits of guarded fields
            (251, (104, 71, 1)),  # GF(251^2): the widest fields, b = 10
        ),
        ids=("gf2_16", "gf3_10", "gf251_2"),
    )
    def test_cyclotomic_matches_reference_loop(self, p, modulus):
        ctx = GfContext(p, modulus)
        e = (ctx.q - 1) // 2 if p > 2 else (ctx.q - 1) // 3
        built = cyclotomic_construct(CyclotomyParams(ctx, e))
        assert built.symbols == reference_cyclotomic(RefField(p, modulus), e)

    def test_log_refuses_non_canonical_tuples(self):
        ctx = GfContext(5, (2, 4, 1))
        for bad in ((5, 0), (0, 0, 1), (0,), (-1, 0), (1, 5)):
            with pytest.raises(ParameterError, match="not a canonical element"):
                ctx.log(bad)
        assert ctx.log([1, 0]) == 0

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ParameterError):
            GfContext(5, (4, 0, 1))  # x^2 + 4 = (x-1)(x+1) over Z_5

    def test_non_generator_rejected(self):
        with pytest.raises(ParameterError):
            GfContext(7, (6, 1))  # x - 1: the root 1 generates nothing

    def test_log_of_zero_rejected(self):
        ctx = GfContext(5, (3, 1))
        with pytest.raises(ParameterError):
            ctx.log(ctx.zero)

    def test_size_cap(self):
        with pytest.raises(ParameterError):
            GfContext(2, tuple([1] + [0] * 16 + [1]))  # 2^17 elements
