"""Numerical kernel tests: every frozen constant below was produced by an
independent oracle (mpmath at 40 digits, exact integer arithmetic, or a
high-resolution composite-Simpson rule) before being pinned."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from posterior_lab.intervals import LogBracket, mass_ratio
from posterior_lab.numerics import (
    LOG_ZERO,
    QuadratureError,
    RandomStream,
    adaptive_quadrature,
    inv_norm_cdf,
    log_add,
    log_falling_factorial_ratio,
    log_sub,
    log_sum_exp,
    norm_cdf,
    zeta_series,
)
from posterior_lab.numerics import _EM_FROM, _simpson_log

mp.mp.dps = 40


def _phi_inv_oracle(p: float) -> float:
    """Bisection on the mpmath erfc-based CDF."""
    lo, hi = mp.mpf(-40), mp.mpf(40)
    p = mp.mpf(repr(p))
    for _ in range(200):
        mid = (lo + hi) / 2
        if mp.erfc(-mid / mp.sqrt(2)) / 2 < p:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


class TestInvNormCdf:
    def test_symmetry_point(self):
        assert inv_norm_cdf(0.5) == 0.0

    def test_oracle_points(self):
        # frozen from the bisection oracle above
        assert inv_norm_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
        assert _phi_inv_oracle(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
        assert inv_norm_cdf(0.841344746) == pytest.approx(0.9999999997167304,
                                                          abs=1e-9)
        assert _phi_inv_oracle(0.841344746) == pytest.approx(0.9999999997167304,
                                                             abs=1e-12)

    def test_absolute_cdf_error(self):
        for p in [1e-12, 1e-9, 1e-4, 0.3, 0.5, 0.7, 1 - 1e-4, 1 - 1e-9, 1 - 1e-12]:
            z = inv_norm_cdf(p)
            assert abs(norm_cdf(z) - p) <= 1e-9

    def test_roundtrip_identity(self):
        zs = np.linspace(-6.0, 6.0, 1000)
        err = max(abs(inv_norm_cdf(norm_cdf(z)) - z) for z in zs)
        assert err <= 1e-8

    def test_domain(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                inv_norm_cdf(p)

    @given(st.floats(1e-10, 1 - 1e-10))
    @settings(max_examples=200)
    def test_monotone(self, p):
        q = min(p * 1.0001 + 1e-12, 1 - 1e-12)
        assert inv_norm_cdf(p) <= inv_norm_cdf(q)


class TestLogSumExp:
    def test_pair_of_zeros(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_singleton_identity(self):
        for x in (-1234.5, 0.0, 777.0):
            assert log_sum_exp([x]) == x

    def test_extreme_magnitudes(self):
        # oracle: mpmath log(e^-1000 + e^-1000.5) = -999.525923015819893
        assert log_sum_exp([-1000.0, -1000.5]) == pytest.approx(
            -999.525923015819893, abs=1e-9)

    def test_empty(self):
        assert log_sum_exp([]) == LOG_ZERO

    def test_log_zero_absorbed(self):
        assert log_sum_exp([LOG_ZERO, 1.0, LOG_ZERO]) == pytest.approx(1.0)

    @given(st.lists(st.floats(-600, 600), min_size=1, max_size=24),
           st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_permutation_invariant(self, xs, rng):
        ys = list(xs)
        rng.shuffle(ys)
        assert log_sum_exp(ys) == pytest.approx(log_sum_exp(xs), abs=1e-12)

    @given(st.lists(st.floats(-300, 300), min_size=1, max_size=12),
           st.integers(0, 11), st.floats(0.001, 5.0))
    @settings(max_examples=150)
    def test_monotone_in_each_argument(self, xs, i, bump):
        i = i % len(xs)
        ys = list(xs)
        ys[i] += bump
        assert log_sum_exp(ys) >= log_sum_exp(xs)

    def test_log_add_sub_roundtrip(self):
        a, b = -3.0, -10.0
        s = log_add(a, b)
        assert log_sub(s, b) == pytest.approx(a, abs=1e-12)
        with pytest.raises(ValueError):
            log_sub(b, a)


class TestFallingFactorialRatio:
    def test_single_factor(self):
        assert log_falling_factorial_ratio(1, 2, 1) == pytest.approx(
            math.log(0.5), abs=1e-15)

    def test_by_hand_binomials(self):
        # (4)_3/(8)_3 = 24/336 = C(5,1)/C(8,4)
        assert log_falling_factorial_ratio(4, 8, 3) == pytest.approx(
            math.log(Fraction(24, 336)), abs=1e-13)

    def test_integer_product_oracle(self):
        # oracle: exact Fraction 970200/7880400
        fr = Fraction(100 * 99 * 98, 200 * 199 * 198)
        want = mp.log(mp.mpf(fr.numerator) / fr.denominator)
        assert log_falling_factorial_ratio(100, 200, 3) == pytest.approx(
            float(want), abs=1e-12)

    def test_zero_when_k_exceeds_m(self):
        assert log_falling_factorial_ratio(1, 2, 2) == LOG_ZERO

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_falling_factorial_ratio(3, 2, 1)  # m > m2
        with pytest.raises(ValueError):
            log_falling_factorial_ratio(2, 2, 3)  # k > m2

    @given(st.integers(0, 300), st.integers(0, 300), st.integers(0, 300))
    @settings(max_examples=120)
    def test_matches_exact_fraction(self, m, extra, k):
        m2 = m + extra
        k = min(k, m)
        got = log_falling_factorial_ratio(m, m2, k)
        fr = Fraction(1)
        for i in range(k):
            fr *= Fraction(m - i, m2 - i)
        if fr == 0:
            assert got == LOG_ZERO
        else:
            want = float(mp.log(mp.mpf(fr.numerator)) - mp.log(mp.mpf(fr.denominator)))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_sum_of_log_factors_large(self):
        # the invariant contract: equals the plain sum of k log factors
        m, m2, k = 10**6, 2 * 10**6, 10**4
        direct = sum(math.log(m - i) - math.log(m2 - i) for i in range(k))
        got = log_falling_factorial_ratio(m, m2, k)
        assert got == pytest.approx(direct, rel=1e-12)


def inv_square_tail(m):
    """Enclosure of sum_{N > m} 1/N^2: the s = 2 case of zeta_series."""
    lo, hi = zeta_series([1.0], 2, m + 1)
    return math.exp(lo), math.exp(hi)


class TestInvSquareTail:
    def test_vs_trigamma_oracle(self):
        for m in (0, 1, 4, 31, 32, 100, 10_000):
            want = mp.polygamma(1, m + 1)
            lo, hi = inv_square_tail(m)
            assert lo <= want <= hi
            assert hi - lo <= 1e-13 * want

    def test_vs_direct_sum(self):
        cutoff = 3_000_000
        direct = sum(1.0 / n**2 for n in range(6, cutoff))
        # the summed oracle misses its own tail, which lies in
        # (1/cutoff, 1/(cutoff-1))
        lo, hi = inv_square_tail(5)
        assert direct + 1.0 / cutoff < hi and lo < direct + 1.0 / (cutoff - 1)

    def test_zeta2(self):
        lo, hi = inv_square_tail(0)
        assert lo <= math.pi**2 / 6.0 <= hi
        assert hi - lo <= 1e-13 * math.pi**2 / 6.0
        assert math.sqrt(lo * hi) == pytest.approx(math.pi**2 / 6.0, rel=1e-15)


class TestHurwitzZeta:
    # s up to 2J + 4 for the 40 tail terms of the step sum; z = 31 and 32
    # sit on either side of the switch from the direct sum to Euler-Maclaurin
    @pytest.mark.parametrize("z", [1.0, 2.0, _EM_FROM - 1.0, _EM_FROM, 1e3, 1e5])
    def test_against_mpmath(self, z):
        for s in range(2, 85):
            lo, hi = zeta_series([1.0], s, z)
            # mpmath's Hurwitz zeta loses about s log10(z) digits
            with mp.workdps(30 + int(s * math.log10(z + 1.0))):
                want = mp.log(mp.zeta(s, mp.mpf(z)))
            assert lo <= want <= hi, (s, z)
            assert hi - lo <= 2e-13 + 1e-14 * abs(hi), (s, z)

    def test_series_against_mpmath(self):
        # sum_{N >= a} N^-3 (1 - a^2/N^2 / 3) with its coefficient slack
        a = 40.0
        lo, hi = zeta_series([1.0, -1.0 / 3.0], 3, a, slack=1e-12)
        want = mp.zeta(3, a) - a * a / 3 * mp.zeta(5, a)
        assert lo <= mp.log(want) <= hi
        assert hi - lo <= 3e-12


class TestAdaptiveQuadrature:
    def test_polynomial(self):
        res = adaptive_quadrature(
            lambda x: 2.0 * math.log(x) if x > 0 else LOG_ZERO, 0.0, 1.0, 1e-10)
        assert res.estimate == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_essential_singularity_prior_normalizer(self):
        # oracle: mpmath integral of e^(-1/t) over [0,1] = 0.148495506775922048
        res = adaptive_quadrature(lambda t: -1.0 / t if t > 0 else LOG_ZERO,
                                  0.0, 1.0, 1e-10)
        assert res.estimate == pytest.approx(0.148495506775922048, abs=2e-9)
        # independent high-resolution Simpson oracle
        xs = np.linspace(1e-9, 1.0, 200_001)
        ys = np.exp(-1.0 / xs)
        simp = float(scipy.integrate.simpson(ys, x=xs))
        assert res.estimate == pytest.approx(simp, abs=1e-7)

    def test_tilt_member_normalization(self):
        # integral of f_theta over (0,1) is 1 by the Gaussian moment identity
        from posterior_lab.densities import GaussExpDensity
        d = GaussExpDensity(0.5)
        res = adaptive_quadrature(
            lambda x: d.logpdf(x) if 0 < x < 1 else LOG_ZERO, 0.0, 1.0, 1e-9)
        assert res.estimate == pytest.approx(1.0, abs=1e-6)

    def test_extreme_log_magnitudes(self):
        up = adaptive_quadrature(lambda x: 5000.0, 0.0, 1.0, 1e-9)
        assert up.log_estimate == pytest.approx(5000.0, abs=1e-9)
        down = adaptive_quadrature(lambda x: -5000.0 + math.log1p(x), 0.0, 1.0,
                                   1e-9, relative=True)
        assert down.log_estimate == pytest.approx(-5000.0 + math.log(1.5),
                                                  abs=1e-9)

    def test_tol_refinement_monotone(self):
        f = lambda x: math.sin(3.0 * x) - x * x  # noqa: E731
        prev = None
        for tol in (1e-4, 5e-5, 2.5e-5, 1.25e-5, 1e-6, 1e-8):
            res = adaptive_quadrature(f, 0.0, 2.0, tol)
            if prev is not None:
                assert res.abs_error_bound <= prev.abs_error_bound * (1 + 1e-12)
                assert abs(res.estimate - prev.estimate) <= prev.abs_error_bound
            prev = res

    def test_budget_exhaustion_carries_bracket(self):
        with pytest.raises(QuadratureError) as ei:
            adaptive_quadrature(lambda x: math.sin(50.0 / (x + 1e-3)), 0.0, 1.0,
                                1e-14, max_intervals=24)
        assert math.isfinite(ei.value.log_estimate)
        assert ei.value.evaluations > 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(lambda x: 0.0, 1.0, 1.0, 1e-9)
        with pytest.raises(ValueError):
            adaptive_quadrature(lambda x: 0.0, 0.0, 1.0, -1e-9)

    def test_zero_integrand(self):
        res = adaptive_quadrature(lambda x: LOG_ZERO, 0.0, 1.0, 1e-9)
        assert res.log_estimate == LOG_ZERO
        assert res.estimate == 0.0


def _simpson_log_reference(a, b, fa, fm, fb):
    # the array form _simpson_log replaced
    s = log_sum_exp((fa, fm + math.log(4.0), fb))
    if s == LOG_ZERO:
        return LOG_ZERO
    return math.log((b - a) / 6.0) + s


_log_values = st.one_of(st.floats(-1e4, 1e4), st.just(LOG_ZERO))


class TestSimpsonLog:
    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.0, 100.0), st.floats(1e-9, 50.0),
           _log_values, _log_values, _log_values)
    def test_bitwise_equal_to_array_form(self, a, h, fa, fm, fb):
        got = _simpson_log(a, a + h, fa, fm, fb)
        want = _simpson_log_reference(a, a + h, fa, fm, fb)
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_close_terms(self):
        # terms within a few ulps of each other, where the summation order
        # decides the last bit
        rng = np.random.default_rng(3)
        for _ in range(20000):
            fa, fm, fb = (rng.normal(0.0, 1e-12, 3) + rng.normal(0.0, 50.0)).tolist()
            assert _simpson_log(0.0, 0.1, fa, fm, fb) == \
                _simpson_log_reference(0.0, 0.1, fa, fm, fb)


class TestRandomStream:
    def test_uniform_stream_is_pure(self):
        rs = RandomStream(seed=1, stream_id=0)
        a = rs.uniform(1000)
        b = rs.uniform(1000)
        assert np.array_equal(a, b)

    def test_empty(self):
        assert RandomStream(0).uniform(0).size == 0

    def test_advance_is_contiguous(self):
        rs = RandomStream(seed=9, stream_id=3)
        whole = rs.uniform(100)
        first, rest = rs.uniform(40), rs.advance(40).uniform(60)
        assert np.array_equal(whole, np.concatenate([first, rest]))

    def test_streams_do_not_share_prefixes(self):
        prefixes = {tuple(RandomStream(1, sid).uniform(8)) for sid in range(64)}
        assert len(prefixes) == 64

    def test_stream_decorrelation(self):
        a = RandomStream(1, 0).uniform(10_000)
        b = RandomStream(1, 1).uniform(10_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_chi_square_uniformity(self):
        u = RandomStream(7, 3).uniform(1_000_000)
        counts = np.bincount((u * 100).astype(int), minlength=100)
        stat = float(((counts - 10_000.0) ** 2 / 10_000.0).sum())
        assert scipy.stats.chi2.sf(stat, 99) > 0.001

    def test_range(self):
        u = RandomStream(3, 0).uniform(100_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        v = RandomStream(3, 0).uniform_open(100_000)
        assert v.min() > 0.0 and v.max() < 1.0


class TestMassRatio:
    def test_far_tail_does_not_overflow(self):
        # d = ln B - ln A = 800: e^d overflows, and A/(A+B) = e^-800
        # underflows, so the upper end is the smallest subnormal
        a, b = LogBracket.point(-10.0), LogBracket.point(790.0)
        small = mass_ratio(a, b)
        assert small.lower == 0.0 and small.upper == math.ulp(0.0)
        big = mass_ratio(b, a)
        assert big.lower == big.upper == 1.0

    def test_past_overflow_is_exp_minus_d(self):
        got = mass_ratio(LogBracket.point(0.0), LogBracket(715.0, 720.0))
        assert got.lower == math.exp(-720.0) and got.upper == math.exp(-715.0)

    def test_below_overflow_unchanged(self):
        for d in (-30.0, 0.0, 1.5, 700.0, 709.0):
            got = mass_ratio(LogBracket.point(0.0), LogBracket.point(d))
            assert got.lower == got.upper == 1.0 / (1.0 + math.exp(d))

    def test_zero_numerator_stays_zero(self):
        got = mass_ratio(LogBracket.zero(), LogBracket.point(0.0))
        assert got.lower == got.upper == 0.0


import scipy.integrate  # noqa: E402  (used by the Simpson oracle above)
