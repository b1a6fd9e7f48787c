import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from oracles import (
    balanced_alt,
    close,
    er_threshold_alt,
    generalized_ns_alt,
    mp_c_d,
    mp_corollary,
    mp_eg_vector,
    mp_j_constant,
    mp_kostochka,
    mp_main_bound,
    mp_ns_vector,
    ns_subset_alt,
)
from randfam import rand_moduli

from sunflower import bounds
from sunflower import (
    EXACT_INT,
    EXACT_RATIONAL,
    FLOAT_APPROX,
    DomainError,
    Factorization,
    JMinimizationResult,
    NotPrimePower,
    SplitMix64,
    TooLarge,
    UsageError,
    balanced_bound,
    c_d,
    compare_bounds,
    corollary_bound,
    eg_vector_bound,
    erdos_rado_threshold,
    factorize,
    generalized_ns_bound,
    j_constant,
    kostochka_value,
    main_bound,
    ns_subset_bound,
    ns_vector_bound,
)


class TestErdosRadoThreshold:
    def test_small_values_t3(self):
        assert erdos_rado_threshold(1, 3) == 2
        assert erdos_rado_threshold(2, 3) == 6
        assert erdos_rado_threshold(3, 3) == 32
        assert erdos_rado_threshold(4, 3) == 250

    def test_returns_exact_fraction(self):
        v = erdos_rado_threshold(5, 3)
        assert isinstance(v, Fraction)

    def test_agrees_with_second_summation_order(self):
        for k in range(1, 12):
            for t in (2, 3, 4, 7):
                assert erdos_rado_threshold(k, t) == er_threshold_alt(k, t)

    def test_strictly_increasing_in_k(self):
        vals = [erdos_rado_threshold(k, 3) for k in range(1, 9)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_increasing_in_t(self):
        assert erdos_rado_threshold(3, 2) < erdos_rado_threshold(3, 3) < erdos_rado_threshold(3, 4)

    def test_domain(self):
        with pytest.raises(DomainError):
            erdos_rado_threshold(0, 3)
        with pytest.raises(DomainError):
            erdos_rado_threshold(3, 1)


class TestKostochka:
    def test_domain_floor(self):
        with pytest.raises(DomainError):
            kostochka_value(15)
        kostochka_value(16)  # smallest admissible k

    def test_against_high_precision(self):
        for k in (16, 20, 40, 100):
            assert close(kostochka_value(k), mp_kostochka(k), rel=1e-9)

    def test_only_three_sunflowers(self):
        # the theorem is about t = 3 only, so there is no petal count to pass
        for t in (2, 3, 4):
            with pytest.raises(TypeError):
                kostochka_value(20, t=t)
        report = {r.name: r for r in compare_bounds(k=20, M=21)}["kostochka"]
        assert report.parameters["t"] == 3

    @pytest.mark.parametrize("k", [16, 100, 306, 10**4])
    def test_report_radius_covers_high_precision(self, k):
        # 306 is the last k whose value is a finite double
        report = {r.name: r for r in compare_bounds(k=k, M=k + 1)}["kostochka"]
        ref = mp_kostochka(k)
        if report.value == math.inf:
            assert report.radius == math.inf and ref > sys.float_info.max
        else:
            assert report.value == kostochka_value(k)
            assert abs(report.value - float(ref)) <= report.radius <= report.value * 1e-11


class TestNsSubsetBound:
    def test_formula(self):
        for n in range(1, 20):
            assert ns_subset_bound(n) == ns_subset_alt(n)

    def test_frozen_value(self):
        assert ns_subset_bound(9) == 3900

    def test_exact_int(self):
        assert isinstance(ns_subset_bound(30), int)


class TestCd:
    def test_c3_exact(self):
        assert abs(c_d(3) - 3.0) <= 1e-12

    def test_against_high_precision(self):
        for d in (3, 4, 5, 9, 100):
            assert close(c_d(d), mp_c_d(d), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            c_d(2)


class TestNsVectorBound:
    def test_frozen_square(self):
        v = ns_vector_bound(3, 2)
        assert close(float(v), 9.0, rel=1e-12)

    def test_power_identity(self):
        for d, n in ((3, 1), (4, 2), (5, 3), (9, 4)):
            assert close(float(ns_vector_bound(d, n)), mp_ns_vector(d, n), rel=1e-10)

    def test_carries_radius(self):
        v = ns_vector_bound(5, 7)
        assert v.radius > 0
        assert abs(float(v) - mp_ns_vector(5, 7)) <= v.radius + 1e-9


class TestJConstant:
    def test_j3(self):
        r = j_constant(3)
        assert abs(r.j_value - 0.9184) <= 5e-5

    def test_against_high_precision(self):
        for q in (2, 3, 5, 8, 64, 1103, 2048, 10**4, 10**5, 2 * 10**6, 10**12, 10**13, 2**53):
            _, ref = mp_j_constant(q)
            r = j_constant(q)
            assert abs(r.j_value - float(ref)) <= r.error_radius <= 1e-11
            assert 0 < r.x_star < 1

    @pytest.mark.parametrize("q", [1103, 2048, 10**4, 10**5, 2 * 10**6])
    def test_large_q_against_high_precision(self, q):
        # from q = 1103 on the minimizer lies past 256/257, so any fixed
        # grid of that size misses it
        _, ref = mp_j_constant(q)
        r = j_constant(q)
        assert abs(r.j_value - float(ref)) <= r.error_radius <= 1e-11
        assert 256 / 257 < r.x_star < 1

    @pytest.mark.parametrize("q,tol", [(10**12, 1e-6), (10**12, 1e-12), (10**13, 1e-12), (2**53, 1e-12)])
    def test_minimizer_near_one_against_high_precision(self, monkeypatch, q, tol):
        # the bracket's stop rule follows s* = -log x_star, about 2.15 / q,
        # whatever the absolute stop width
        monkeypatch.setattr(bounds, "_J_ABS_TOL", tol)
        _, ref = mp_j_constant(q)
        r = j_constant(q)
        assert abs(r.j_value - float(ref)) <= r.error_radius <= 1e-11

    @settings(max_examples=30, deadline=None)
    @given(
        e=st.floats(min_value=1.0, max_value=53.0),
        tol=st.sampled_from([1e-12, 1e-3]),
    )
    def test_property_radius_covers_high_precision(self, e, tol):
        # tol is the absolute stop width; 1e-3 leaves a wide final bracket
        q = min(max(round(2.0**e), 2), 2**53)  # log-uniform over 2..2^53
        _, ref = mp_j_constant(q)
        with mock.patch.object(bounds, "_J_ABS_TOL", tol):
            r = j_constant(q)
        assert abs(r.j_value - float(ref)) <= r.error_radius <= 1e-11

    def test_newton_steps_close_the_bracket_in_few_slope_evaluations(self, monkeypatch):
        # each slope evaluation calls expm1 twice, and the result at the
        # bracket's midpoint four times: twice for J, twice for the radius;
        # bisection takes 31-40 evaluations, and Newton points that approach
        # the root from one side never move the other end of the bracket
        class CountingMath:
            expm1_calls = 0

            def __getattr__(self, name):
                return getattr(math, name)

            def expm1(self, x):
                self.expm1_calls += 1
                return math.expm1(x)

        counting = CountingMath()
        monkeypatch.setattr(bounds, "math", counting)
        edges = [2**e + d for e in range(2, 54) for d in (-1, 0, 1) if 2**e + d <= 2**53]
        for q in [*range(2, 20_001), *edges]:
            counting.expm1_calls = 0
            j_constant(q)
            assert counting.expm1_calls % 2 == 0, q
            assert 1 <= (counting.expm1_calls - 4) // 2 <= 8, q

    def test_slope_root_is_bracketed_by_one_and_three_over_q(self):
        # with x = exp(-s) the log objective has slope
        # q / expm1(q s) - 1 / expm1(s) + (q - 1) / 3; it changes sign
        # between s = 1/q and s = 3/q, where the bracket starts
        def slope(q, s):
            return q / math.expm1(q * s) - 1.0 / math.expm1(s) + (q - 1) / 3.0

        edges = [2**e + d for e in range(2, 54) for d in (-1, 0, 1) if 2**e + d <= 2**53]
        for q in [*range(2, 10**5 + 1), *edges]:
            assert slope(q, 1.0 / q) < 0.0 < slope(q, 3.0 / q), q

    def test_q_beyond_double_precision_is_a_domain_error(self):
        with pytest.raises(DomainError):
            j_constant(10**16)

    def test_decreasing_spot_checks(self):
        assert j_constant(3).j_value > j_constant(4).j_value > j_constant(16).j_value

    def test_limit_band(self):
        assert 0.8414 <= j_constant(1024).j_value <= 0.8500

    def test_domain(self):
        with pytest.raises(DomainError):
            j_constant(1)

    @pytest.mark.parametrize("tol", [1e-6, math.nan, -math.inf])
    def test_tol_is_not_a_parameter(self, tol):
        # the stop rule is fixed: width at most 1e-12 and at most 1e-6 of s
        with pytest.raises(TypeError):
            j_constant(3, tol=tol)
        with pytest.raises(TypeError):
            j_constant(3, tol)

    def test_json_shape(self):
        d = j_constant(5).to_json_dict()
        assert set(d) == {"q", "x_star", "j", "radius", "exactness"}
        assert d["exactness"] == FLOAT_APPROX


class TestFactorize:
    def test_prime_power_detection(self):
        assert factorize(27).is_prime_power
        assert factorize(7).is_prime_power
        assert not factorize(12).is_prime_power

    def test_prime_powers_follow_prime_order(self):
        assert factorize(360).prime_powers() == (8, 9, 5)
        assert factorize(15).prime_powers() == (3, 5)

    def test_value_reconstruction(self):
        for m in (2, 6, 15, 27, 360, 1024):
            f = factorize(m)
            v = 1
            for q in f.prime_powers():
                v *= q
            assert v == m

    def test_domain(self):
        with pytest.raises(DomainError):
            factorize(1)


class TestEgVectorBound:
    def test_frozen(self):
        r = eg_vector_bound(3, 2)
        assert close(r.value, 7.590601428704101, rel=1e-9)

    def test_matches_j_power(self):
        for q, n in ((3, 1), (4, 3), (9, 2)):
            r = eg_vector_bound(q, n)
            assert abs(r.value - float(mp_eg_vector(q, n))) <= r.radius + 1e-8

    def test_rejects_composite_and_two(self):
        with pytest.raises(NotPrimePower):
            eg_vector_bound(15, 2)
        with pytest.raises(DomainError):
            eg_vector_bound(2, 2)


class TestGeneralizedNs:
    def test_frozen_values(self):
        assert generalized_ns_bound((3, 3)) == 15
        assert generalized_ns_bound((3,)) == 3
        assert generalized_ns_bound((3, 3, 3)) == 3 * (1 + 3 * 2 + 3 * 4)

    def test_agrees_with_subset_expansion(self):
        rng = SplitMix64(99)
        for _ in range(40):
            mv = rand_moduli(rng.spawn(), max_n=8)
            assert generalized_ns_bound(mv) == generalized_ns_alt(tuple(mv))

    def test_requires_min_three(self):
        with pytest.raises(DomainError):
            generalized_ns_bound((3, 2))

    def test_exact_int(self):
        assert isinstance(generalized_ns_bound((9,) * 12), int)


class TestBalancedBound:
    def test_formula(self):
        for n, M in ((1, 5), (3, 9), (4, 10), (7, 21)):
            assert balanced_bound(n, M) == balanced_alt(n, M)

    def test_domain(self):
        with pytest.raises(DomainError):
            balanced_bound(3, 2)

    def test_degenerate_m_equals_n(self):
        # a = ceil(n/n) - 1 = 0; only the empty index set survives.
        assert balanced_bound(4, 4) == 1


class TestMainBound:
    def test_frozen_values(self):
        r = main_bound(3, 9)
        ref = float(mp_main_bound(3, 9))  # 1944 e^3
        assert abs(r.value - ref) <= r.radius + 1e-7
        assert close(ref, 1944 * math.exp(3), rel=1e-12)
        r = main_bound(1, 5)
        assert abs(r.value - float(mp_main_bound(1, 5))) <= r.radius + 1e-8

    def test_degenerate_zero(self):
        r = main_bound(4, 4)
        assert r.value == 0.0
        assert "degenerate-zero" in r.flags

    def test_monotone_in_m(self):
        vals = [main_bound(3, M).value for M in range(4, 40, 3)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_report_shape(self):
        r = main_bound(2, 6)
        assert r.name == "main-bound"
        assert r.exactness == FLOAT_APPROX
        assert r.radius is not None and r.radius > 0

    def test_high_precision_sweep(self):
        for k in (1, 2, 3, 5, 8, 13):
            for M in (k + 1, 2 * k + 3, 5 * k):
                r = main_bound(k, M)
                assert abs(r.value - float(mp_main_bound(k, M))) <= r.radius + 1e-6 * (
                    1 + abs(r.value)
                )


class TestCorollaryBound:
    def test_frozen(self):
        r = corollary_bound(3, 0.75)
        ref = float(mp_corollary(3, 0.75))  # 4374 e^3
        assert abs(r.value - ref) <= r.radius + 1e-7
        assert close(ref, 4374 * math.exp(3), rel=1e-12)

    def test_exponent_is_exact_at_rational_boundary(self):
        # k=3, eps=1: 3*(1 - 2/3) = 1 exactly; float rounding must not push
        # the ceiling to 2.  The k^1 and k^2 variants differ by a factor 3.
        r1 = corollary_bound(3, 1.0)
        base = 3 * (math.ceil(2 * 3 / 3) + 1) * (2 ** (1 / 3) * 3 * math.e) ** 3
        assert close(r1.value, base * 3, rel=1e-9)

    def test_against_high_precision(self):
        for k, eps in ((2, 0.5), (4, 0.25), (7, 1.2), (1, 0.5)):
            r = corollary_bound(k, eps)
            assert abs(r.value - float(mp_corollary(k, eps))) <= r.radius + 1e-6 * (
                1 + abs(r.value)
            )

    def test_value_and_radius_frozen(self):
        # exact bits: the log terms it shares with main_bound keep one summation order
        r = corollary_bound(16, 0.5)
        assert (r.value, r.radius) == (9.767139849625845e30, 1.2553812236354263e18)

    @pytest.mark.parametrize("k", [2, 3, 16])
    def test_equals_main_bound_where_the_formulas_meet(self, k):
        # eps = 1/2 makes the exponent ceil(2k/3), and M = k(k+1) makes ceil(M/k)-1 = k,
        # so both bounds sum the same terms in the same order: equal to the bit
        a, b = main_bound(k, k * (k + 1)), corollary_bound(k, 0.5)
        assert (a.value, a.radius) == (b.value, b.radius)

    def test_domain(self):
        with pytest.raises(DomainError):
            corollary_bound(3, 0.0)
        with pytest.raises(DomainError):
            corollary_bound(3, 1.5)


class TestCompareBounds:
    def test_requires_exactly_one_context(self):
        with pytest.raises(UsageError):
            compare_bounds()
        with pytest.raises(UsageError):
            compare_bounds(moduli=(3, 3), k=2, M=6)
        with pytest.raises(UsageError):
            compare_bounds(k=2)

    def test_uniform_context_k2_m6(self):
        reports = {r.name: r for r in compare_bounds(k=2, M=6)}
        assert reports["erdos-rado-threshold"].value == 6
        assert reports["erdos-rado-threshold"].strictness == "exceeding-forces-sunflower"
        assert "main-bound" in reports
        assert "kostochka" not in reports  # below the k floor
        ns = reports["ns-subset"]  # k-sets of [M] are subsets of [M]
        assert (ns.value, ns.exactness, ns.parameters) == (ns_subset_alt(6), EXACT_INT, {"n": 6})

    def test_ns_subset_only_while_it_fits_a_double(self):
        assert float(ns_subset_alt(1107)) < math.inf
        with pytest.raises(OverflowError):
            float(ns_subset_alt(1108))
        assert "ns-subset" in {r.name for r in compare_bounds(k=3, M=1107)}
        reports = compare_bounds(k=3, M=1200)
        assert [r.name for r in reports] == ["erdos-rado-threshold", "main-bound"]

    def test_threshold_only_while_its_numerator_prints(self):
        # Python refuses int-to-str past 4,300 digits; k = 1423 is the last
        # threshold whose "p/q" fits
        names = [r.name for r in compare_bounds(k=1423, M=1424)]
        assert "erdos-rado-threshold" in names
        assert len(str(erdos_rado_threshold(1423, 3).numerator)) == 4300
        reports = compare_bounds(k=1424, M=1425)
        assert [r.name for r in reports] == ["kostochka", "main-bound"]

    def test_values_past_the_double_range_sort_and_serialize(self):
        # 151! 2^151 exceeds the largest double
        reports = compare_bounds(k=151, M=152)
        assert [r.value for r in reports] == sorted(r.value for r in reports)
        er = reports[-1]
        assert er.name == "erdos-rado-threshold"
        assert er.numeric() == math.inf and er.to_json_dict()["approx"] == math.inf

    def test_kostochka_appears_with_flag(self):
        reports = {r.name: r for r in compare_bounds(k=16, M=40)}
        assert "kostochka" in reports
        assert "up-to-unspecified-constant" in reports["kostochka"].flags

    def test_vector_context_square(self):
        reports = compare_bounds(moduli=(3, 3))
        names = [r.name for r in reports]
        assert set(names) == {
            "generalized-ns",
            "balanced-times-three",
            "ns-vector",
            "eg-vector",
        }
        values = [r.numeric() for r in reports]
        assert values == sorted(values)

    @pytest.mark.parametrize("q,listed", [(3, True), (9, True), (4, False)])
    def test_eg_vector_only_for_odd_prime_powers(self, q, listed):
        # For even q a progression of distinct points need not be a sunflower:
        # in Z4^2, (0,0), (2,1), (0,2) has first coordinates 0, 2, 0.
        names = {r.name for r in compare_bounds(moduli=(q, q))}
        assert ("eg-vector" in names) == listed
        assert "ns-vector" in names

    def test_vector_context_composite_modulus(self):
        # 15 is not a prime power: no EG entry; the rest still apply.
        names = {r.name for r in compare_bounds(moduli=(15, 15))}
        assert "eg-vector" not in names
        assert "generalized-ns" in names

    def test_sorted_by_value_then_name(self):
        reports = compare_bounds(moduli=(4, 5, 6))
        keyed = [(r.numeric(), r.name) for r in reports]
        assert keyed == sorted(keyed)


@pytest.mark.parametrize(
    "call,expected",
    [
        pytest.param(lambda: ns_subset_bound(0), DomainError("n must be at least 1"), id="ns-subset"),
        pytest.param(lambda: ns_vector_bound(3, 0), DomainError("n must be at least 1"),
                     id="ns-vector"),
        pytest.param(lambda: eg_vector_bound(3, 0), DomainError("n must be at least 1"),
                     id="eg-vector"),
        pytest.param(lambda: balanced_bound(0, 4), DomainError("n must be at least 1"),
                     id="balanced"),
        pytest.param(lambda: main_bound(0, 4), DomainError("k must be at least 1"), id="main"),
        pytest.param(lambda: corollary_bound(0, 0.5), DomainError("k must be at least 1"),
                     id="corollary"),
        pytest.param(lambda: factorize(2**63 + 1),
                     TooLarge("factorization supported up to 2^63"), id="factorize-2^63+1"),
        pytest.param(lambda: JMinimizationResult(3, 1.0, 1.0, 0.0),
                     DomainError("minimizer must lie strictly inside (0,1)"), id="j-x-star-1"),
        pytest.param(lambda: JMinimizationResult(3, 0.0, 1.0, 0.0),
                     DomainError("minimizer must lie strictly inside (0,1)"), id="j-x-star-0"),
        pytest.param(lambda: factorize(360).value, 360, id="factorization-value"),
        pytest.param(lambda: Factorization(()).value, 1, id="factorization-value-empty"),
    ],
)
def test_checks_no_other_test_reaches(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            call()
    else:
        assert call() == expected


@given(st.integers(1, 9), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_property_threshold_positive_and_exact(k, t):
    v = erdos_rado_threshold(k, t)
    assert v > 0
    assert v == er_threshold_alt(k, t)


@given(st.integers(1, 10))
@settings(max_examples=20, deadline=None)
def test_property_balanced_bound_monotone_in_m(n):
    vals = [balanced_bound(n, M) for M in range(n, 6 * n, max(1, n // 2))]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
