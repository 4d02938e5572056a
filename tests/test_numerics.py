"""Numerical kernel tests: every frozen constant below was produced by an
independent oracle (mpmath at 40 digits, exact integer arithmetic, or a
high-resolution composite-Simpson rule) before being pinned."""

import hashlib
import math
import pickle
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import abs_error_bound, estimate, inv_norm_cdf_point, on_nodes

from posterior_lab import numerics
from posterior_lab.intervals import LogBracket, mass_ratio, mass_share
from posterior_lab.numerics import (
    LOG_ZERO,
    NumericError,
    QuadratureError,
    RandomStream,
    adaptive_quadrature,
    binet,
    inv_norm_cdf,
    kronrod_nodes,
    log_add,
    log_sum_exp,
    norm_cdf,
    zeta_series,
)
from posterior_lab.numerics import (
    _BINET_COEFFICIENTS,
    _BINET_TABLE,
    _EM_COEFFICIENTS,
    _EM_FROM,
    _EM_TERMS,
)

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

    # both ends of the tail branches and their float neighbours, the far
    # tail where |z| > 37 and Acklam's value is returned unrefined, the
    # last float below 1, the centre and 2^-53
    EDGES = [0.02425, math.nextafter(0.02425, 0.0), math.nextafter(0.02425, 1.0),
             1 - 0.02425, math.nextafter(1 - 0.02425, 0.0),
             math.nextafter(1 - 0.02425, 1.0), 1e-300, 1e-310, 5e-324,
             1 - 2.0 ** -53, 0.5, 2.0 ** -53]

    def test_array_equals_the_numbers_bit_for_bit(self):
        p = np.r_[RandomStream(20, 0).uniform_open(200_000), self.EDGES]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = inv_norm_cdf(p)
        assert z.dtype == np.float64 and z.shape == p.shape
        one_by_one = np.array([inv_norm_cdf_point(v) for v in p.tolist()])
        assert z.tobytes() == one_by_one.tobytes()
        assert abs(inv_norm_cdf(1e-300)) > 37.0
        # the digest of these values as the float-only code computed them,
        # one element at a time, before inv_norm_cdf took arrays
        assert hashlib.sha256(z.tobytes()).hexdigest() == \
            "3bc5830e22fe4f33f606f321a6fb32c7f59c77e3e9f198f304a186a7171051f1"
        assert inv_norm_cdf(np.zeros(0)).size == 0
        assert inv_norm_cdf(p.reshape(-1, 2)).tobytes() == z.tobytes()

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, math.nan, math.inf])
    def test_array_domain(self, bad):
        with pytest.raises(ValueError, match="0 < p < 1"):
            inv_norm_cdf(np.array([0.3, bad, 0.7]))


class TestQuadratureError:
    def test_survives_a_pickle_round_trip(self):
        e = pickle.loads(pickle.dumps(QuadratureError("m", 1.0, 2.0, 3)))
        assert type(e) is QuadratureError and str(e) == "m"
        assert (e.log_estimate, e.log_error_bound, e.evaluations) == (1.0, 2.0, 3)


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

    def test_log_add_of_two_terms(self):
        a, b = -3.0, -10.0
        want = float(mp.log(mp.exp(a) + mp.exp(b)))
        assert log_add(a, b) == pytest.approx(want, abs=1e-12)
        assert log_add(b, a) == log_add(a, b)
        assert log_add(LOG_ZERO, b) == b and log_add(a, LOG_ZERO) == a


def log_falling_factorial_ratio(m: int, m2: int, k: int) -> float:
    """ln[(m)_k / (m2)_k] for the falling factorials (m)_k = m(m-1)...(m-k+1),
    the plain sum of k log factors: the oracle the step head's closed form
    replaced.  Preconditions: 0 <= k, m <= m2.  Returns LOG_ZERO when k > m
    (the upper product contains a zero factor); k > m2 is a domain error."""
    if k < 0 or m < 0 or m2 < 0:
        raise ValueError("arguments must be nonnegative integers")
    if m > m2:
        raise ValueError(f"requires m <= m2, got m={m} m2={m2}")
    if k > m2:
        raise ValueError(f"requires k <= m2, got k={k} m2={m2}")
    if k > m:
        return LOG_ZERO
    i = np.arange(k, dtype=float)  # one rounding per log factor
    return float(np.sum(np.log(m - i)) - np.sum(np.log(m2 - i)))


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


def bernoulli_numbers(count):
    """B_0 .. B_(count - 1) in exact rationals, from the Bernoulli recurrence
    sum_(j <= m) C(m + 1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, count):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def bernoulli_over_factorial(terms):
    """B_2k / (2k)! for k = 1..terms + 1, each rounded once."""
    b = bernoulli_numbers(2 * terms + 3)
    return [float(b[2 * k] / math.factorial(2 * k)) for k in range(1, terms + 2)]


class TestEulerMaclaurinTable:
    def test_constants_are_the_rounded_rationals(self):
        got = _EM_COEFFICIENTS
        want = np.array(bernoulli_over_factorial(_EM_TERMS))
        assert got.dtype == np.float64 and got.shape == (_EM_TERMS + 1,)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestBinet:
    """Binet's function beta(z) = ln z! - (z + 1/2) ln z + z - ln sqrt(2 pi),
    the remainder of Stirling's formula that the step head sums."""

    def test_table_is_the_rounded_values(self):
        with mp.workdps(50):
            want = np.array([float(mp.loggamma(z + 1) - (z + mp.mpf(1) / 2) * mp.log(z)
                                   + z - mp.log(2 * mp.pi) / 2) for z in range(1, 20)])
        assert np.array_equal(_BINET_TABLE.view(np.int64), want.view(np.int64))

    def test_coefficients_lie_within_one_rounding(self):
        # B_2j / (2j (2j - 1)), j = 1..7: one rounding of B_2j / (2j)! and
        # one of its product with (2j - 2)!
        b = bernoulli_numbers(15)
        for j, got in enumerate(_BINET_COEFFICIENTS.tolist(), 1):
            exact = b[2 * j] / (2 * j * (2 * j - 1))
            assert abs(Fraction(got) - exact) <= Fraction(math.ulp(1.0)) * abs(exact), j

    def test_values_lie_inside_their_bounds(self):
        z = np.array([*range(1, 45), 99.0, 1e3, 12345.0, 1e6, 2**40, 1e14, 2.0**51])
        val, err = binet(z)
        with mp.workdps(50):
            for zi, v, e in zip(z.tolist(), val.tolist(), err.tolist()):
                zm = mp.mpf(zi)
                want = mp.loggamma(zm + 1) - (zm + 0.5) * mp.log(zm) + zm - mp.log(2 * mp.pi) / 2
                assert v - e <= want <= v + e, zi
                assert e <= 4 * math.ulp(v), zi


class TestAdaptiveQuadrature:
    def test_polynomial(self):
        with np.errstate(divide="ignore"):
            res = adaptive_quadrature(on_nodes(lambda x: 2.0 * np.log(x)), 0.0, 1.0, 1e-10)
        assert estimate(res) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_essential_singularity_prior_normalizer(self):
        # oracle: mpmath integral of e^(-1/t) over [0,1] = 0.148495506775922048
        res = adaptive_quadrature(on_nodes(lambda t: -1.0 / t), 0.0, 1.0, 1e-10)
        assert estimate(res) == pytest.approx(0.148495506775922048, abs=2e-9)
        # independent high-resolution Simpson oracle
        xs = np.linspace(1e-9, 1.0, 200_001)
        ys = np.exp(-1.0 / xs)
        simp = float(scipy.integrate.simpson(ys, x=xs))
        assert estimate(res) == pytest.approx(simp, abs=1e-7)

    def test_tilt_member_normalization(self):
        # integral of f_theta over (0,1) is 1 by the Gaussian moment identity
        from posterior_lab.densities import GaussExpDensity
        d = GaussExpDensity(0.5)
        res = adaptive_quadrature(
            on_nodes(lambda x: np.array([d.logpdf(v) for v in x.tolist()])), 0.0, 1.0, 1e-9)
        assert estimate(res) == pytest.approx(1.0, abs=1e-6)

    def test_extreme_log_magnitudes(self):
        up = adaptive_quadrature(on_nodes(lambda x: np.full_like(x, 5000.0)), 0.0, 1.0, 1e-9)
        assert up.log_estimate == pytest.approx(5000.0, abs=1e-9)
        down = adaptive_quadrature(on_nodes(lambda x: -5000.0 + np.log1p(x)), 0.0, 1.0,
                                   1e-9, relative=True)
        assert down.log_estimate == pytest.approx(-5000.0 + math.log(1.5),
                                                  abs=1e-9)

    def test_tol_refinement_monotone(self):
        f = on_nodes(lambda x: np.sin(3.0 * x) - x * x)
        prev = None
        for tol in (1e-4, 5e-5, 2.5e-5, 1.25e-5, 1e-6, 1e-8):
            res = adaptive_quadrature(f, 0.0, 2.0, tol)
            if prev is not None:
                assert abs_error_bound(res) <= abs_error_bound(prev) * (1 + 1e-12)
                assert abs(estimate(res) - estimate(prev)) <= abs_error_bound(prev)
            prev = res

    def test_budget_exhaustion_carries_bracket(self, monkeypatch):
        monkeypatch.setattr("posterior_lab.numerics.MAX_INTERVALS", 24)
        with pytest.raises(QuadratureError) as ei:
            adaptive_quadrature(on_nodes(lambda x: np.sin(50.0 / (x + 1e-3))), 0.0, 1.0,
                                1e-14)
        assert math.isfinite(ei.value.log_estimate)
        assert ei.value.evaluations > 0

    def test_seed_panels_past_the_budget_fail_before_any_evaluation(self, monkeypatch):
        monkeypatch.setattr("posterior_lab.numerics.MAX_INTERVALS", 24)
        calls = []

        def f(c, h):
            calls.append(c.size)
            return np.zeros((c.size, 15))

        with pytest.raises(QuadratureError, match="25 seed panels") as ei:
            adaptive_quadrature(f, 0.0, 1.0, 1e-9, breakpoints=np.arange(1, 25) / 25)
        assert calls == [] and ei.value.evaluations == 0
        # as many seed panels as the budget allows still integrate
        res = adaptive_quadrature(f, 0.0, 1.0, 1e-9, breakpoints=np.arange(1, 24) / 24)
        assert res.log_estimate == pytest.approx(0.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(on_nodes(np.zeros_like), 1.0, 1.0, 1e-9)
        with pytest.raises(ValueError):
            adaptive_quadrature(on_nodes(np.zeros_like), 0.0, 1.0, -1e-9)

    def test_zero_integrand(self):
        res = adaptive_quadrature(on_nodes(lambda x: np.full_like(x, LOG_ZERO)), 0.0, 1.0, 1e-9)
        assert res.log_estimate == LOG_ZERO
        assert estimate(res) == 0.0

    def test_nonfinite_log_value_is_a_numeric_error(self):
        # the message names the first offending node of the seed panel [0, 1]
        node = float(kronrod_nodes(np.array([0.5]), np.array([0.5]))[0, 9])
        assert 0.7 < node < 0.71
        for bad in (math.nan, math.inf):
            with pytest.raises(NumericError, match=f"value {bad} at x={node}$"):
                adaptive_quadrature(on_nodes(lambda x: np.where(x > 0.7, bad, 0.0)), 0.0, 1.0)

    def test_kronrod_nodes_are_the_ascending_rule_on_each_panel(self):
        c, h = np.array([0.5, 3.0, 1e3]), np.array([0.5, 0.25, 2.0 ** -20])
        x = kronrod_nodes(c, h)
        assert x.shape == (3, 15)
        assert (np.diff(x, axis=1) > 0).all()
        assert np.array_equal(x[:, 7], c)
        xgk = np.array(numerics._XGK[:7])
        assert np.allclose((x - c[:, None]) / h[:, None],
                           np.concatenate([-xgk, [0.0], xgk[::-1]]), rtol=0, atol=1e-6)

    def test_an_integrand_of_the_wrong_shape_is_refused(self):
        with pytest.raises(ValueError, match=r"shape \(15,\) for 1 panels of 15 nodes"):
            adaptive_quadrature(lambda c, h: np.zeros(15), 0.0, 1.0)

    @pytest.mark.parametrize("f, a, b, kw", [
        (lambda x: -1.0 / x, 0.0, 1.0, {}),
        (lambda x: 300.0 * np.log(np.abs(np.cos(7.0 * x))), 0.0, 5.0,
         {"breakpoints": (math.pi / 14, 3 * math.pi / 14), "relative": True}),
        (lambda x: np.sin(20.0 * x) - x, 0.0, 3.0, {"breakpoints": (1.0, 2.0)}),
    ])
    def test_one_call_per_round(self, f, a, b, kw):
        # each call of the integrand is one round: its panels' 15 nodes each
        # are distinct and inside [a, b], and ``evaluations`` counts exactly
        # the abscissae of the panels passed
        calls = []

        def recorded(c, h):
            x = kronrod_nodes(c, h)
            calls.append(x.ravel())
            with np.errstate(divide="ignore"):
                return f(x)

        res = adaptive_quadrature(recorded, a, b, 1e-10, **kw)
        assert len(calls) > 1
        for x in calls:
            assert x.size % 15 == 0
            assert np.unique(x).size == x.size
            assert ((a < x) & (x < b)).all()
        assert res.evaluations == sum(x.size for x in calls)
        # the first round holds one panel per breakpoint interval
        assert calls[0].size == 15 * (len(kw.get("breakpoints", ())) + 1)

    def test_lockstep_pieces_refine_as_they_would_alone(self, monkeypatch):
        # three pieces on one integrand, one of them less an offset and one
        # that runs out of intervals: each keeps the result (or the error)
        # it has alone, and each round is one call of the integrand for all
        monkeypatch.setattr("posterior_lab.numerics.MAX_INTERVALS", 40)
        g = on_nodes(lambda x: 300.0 * np.log(np.abs(np.cos(7.0 * x)) + 1e-300))
        pieces = [numerics.QuadraturePiece(0.0, 1.0, (), True),
                  numerics.QuadraturePiece(0.2, 0.9, (), False, -40.0),
                  numerics.QuadraturePiece(0.0, 2.0, (math.pi / 14,), True)]
        alone, rounds = [], []
        for p in pieces:
            calls = []

            def shifted(c, h, p=p, calls=calls):
                calls.append(c.size)
                return g(c, h) - p.offset

            try:
                alone.append(adaptive_quadrature(shifted, p.a, p.b, 1e-10,
                                                 breakpoints=p.breakpoints,
                                                 relative=p.relative))
            except QuadratureError as exc:
                alone.append(exc)
            rounds.append(calls)
        calls = []
        got = numerics.lockstep_quadrature(lambda c, h: calls.append(c.size) or g(c, h),
                                           pieces, 1e-10)
        assert got[:2] == alone[:2]
        assert isinstance(got[2], QuadratureError) and isinstance(alone[2], QuadratureError)
        assert str(got[2]) == str(alone[2])
        assert got[2].evaluations == alone[2].evaluations > 0
        assert len(calls) == max(map(len, rounds)) and sum(calls) == sum(map(sum, rounds))


class TestRandomStream:
    def test_uniform_stream_is_pure(self):
        rs = RandomStream(seed=1, stream_id=0)
        a = rs.uniform(1000)
        b = rs.uniform(1000)
        assert np.array_equal(a, b)

    def test_empty(self):
        assert RandomStream(0).uniform(0).size == 0

    # the first four words of six streams, negative seeds and seeds past
    # 2^64 among them: a change to the key derivation or the mixer shows here
    PINNED_BITS = {
        (-1, 0): (0x3ea7d4ae8d4c8af1, 0x2bc0b5609d0c6333,
                  0x7b211d9377013b4b, 0xc157a4d94d1cb985),
        (-1, 3): (0xb71ab04204cab81d, 0x901c2571e1589c16,
                  0xddde514bb144ae49, 0x655a8f14c50349d2),
        (2 ** 64 + 5, 0): (0xa7ca03724c95b5a7, 0x174e4d56f3822d17,
                           0x83fd1176f3b92aaf, 0x70bb52bd2d87607d),
        (2 ** 64 + 5, 3): (0xc30b252ebe3756f4, 0x89dadab1143cfb01,
                           0xa985fbffcc04efa0, 0x66d02a9735abbae4),
        (9, 0): (0x6ee4cfd848299a5a, 0x8b6ed9404990fc82,
                 0x22a5a44961845f44, 0xa0741b64a2b1a2b3),
        (9, 3): (0xf72d72a35bfdf9d3, 0x3f812358dd79cc49,
                 0x6f86b9ff43a5ac92, 0x6bc6542497e02b1a),
    }

    @pytest.mark.parametrize("seed,stream_id", sorted(PINNED_BITS))
    def test_pinned_bits(self, seed, stream_id):
        got = RandomStream(seed, stream_id).bits64(4)
        assert got.dtype == np.uint64
        assert tuple(int(w) for w in got) == self.PINNED_BITS[seed, stream_id]

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


def _mp_ratio(log_a, log_b):
    """A / (A + B) in mpmath, from the floats ln A and ln B."""
    return 1 / (1 + mp.exp(mp.mpf(log_b) - mp.mpf(log_a)))


def _far_ends(rng, size):
    """Log ends where a difference rounds by most: a third exactly 0, whose
    differences are exact, the rest in [128, 1024) and past 1024 in
    magnitude."""
    k = size // 3
    return np.concatenate([np.zeros(k), rng.uniform(128.0, 1024.0, k),
                           rng.uniform(1024.0, 5000.0, size - 2 * k)]) \
        * rng.choice([-1.0, 1.0], size)


class TestMassRatio:
    def test_far_tail_does_not_overflow(self):
        # d = ln B - ln A = 800: e^d overflows, and A/(A+B) = e^-800
        # underflows, so the upper end is the smallest subnormal; its
        # complement's lower end is rounded outward from 1 by a few ulps
        a, b = LogBracket.point(-10.0), LogBracket.point(790.0)
        small = mass_ratio(a, b)
        assert small.lower == 0.0 and small.upper == math.ulp(0.0)
        big = mass_ratio(b, a)
        with mp.workdps(50):
            assert big.lower <= _mp_ratio(790.0, -10.0) <= big.upper == 1.0
        assert big.width() <= 2.0 * math.ulp(1.0)

    def test_past_overflow_is_exp_minus_d(self):
        # past d = 709.78 each end is e^-d at its corner, rounded outward by
        # an ulp
        got = mass_ratio(LogBracket.point(0.0), LogBracket(715.0, 720.0))
        with mp.workdps(50):
            lo, hi = _mp_ratio(0.0, 720.0), _mp_ratio(0.0, 715.0)
            assert got.lower <= lo and hi <= got.upper
            assert lo - got.lower <= 2.0 * math.ulp(got.lower)
            assert got.upper - hi <= 2.0 * math.ulp(got.upper)

    def test_below_overflow_encloses_the_mpmath_value(self):
        for d in (-30.0, 0.0, 1.5, 700.0, 709.0):
            got = mass_ratio(LogBracket.point(0.0), LogBracket.point(d))
            with mp.workdps(50):
                assert got.lower <= _mp_ratio(0.0, d) <= got.upper, d
            assert got.width() <= 4.0 * math.ulp(got.upper), d

    def test_random_ends_enclose_the_mpmath_value(self):
        # d just below and past 709.78, where e^d overflows, |d| near 700,
        # where the difference of two ends past 128 rounds by up to half an
        # ulp of d, 5.7e-14 of the mass, and d near 0
        rng = np.random.default_rng(41)
        k = 2000
        d = np.concatenate([rng.uniform(705.0, 709.78, k), rng.uniform(709.79, 760.0, k),
                            rng.uniform(699.0, 701.0, 2 * k) * rng.choice([-1.0, 1.0], 2 * k),
                            rng.uniform(-5.0, 5.0, k)])
        a = _far_ends(rng, d.size)
        misses = []
        with mp.workdps(50):
            for x, y in zip(a.tolist(), (a + d).tolist()):
                got = mass_ratio(LogBracket.point(x), LogBracket.point(y))
                if not got.lower <= _mp_ratio(x, y) <= got.upper:
                    misses.append((x, y))
                # d's own rounding, an ulp of d either way, and a few of the mass
                assert got.width() <= 2.0 * math.ulp(y - x) * got.upper \
                    + 8.0 * math.ulp(got.upper), (x, y)
        assert misses == []

    def test_zero_numerator_stays_zero(self):
        got = mass_ratio(LogBracket(LOG_ZERO, LOG_ZERO), LogBracket.point(0.0))
        assert got.lower == got.upper == 0.0


class TestMassShare:
    def test_an_underflowing_share_keeps_a_positive_upper_end(self):
        got = mass_share(LogBracket(-4417.5, -4417.4), LogBracket(-204.2, -204.1))
        assert (got.lower, got.upper) == (0.0, math.ulp(0.0))

    def test_a_zero_part_stays_zero(self):
        got = mass_share(LogBracket(LOG_ZERO, LOG_ZERO), LogBracket.point(0.0))
        assert got.lower == got.upper == 0.0

    def test_ends_are_capped_at_one(self):
        got = mass_share(LogBracket(-1e-15, 1e-15), LogBracket(-1e-15, 1e-15))
        assert got.lower < 1.0 == got.upper

    def test_random_ends_enclose_the_mpmath_value(self):
        # shares near e^-745, where they turn subnormal, and near e^-700,
        # where the difference of two ends past 128 rounds by up to half an
        # ulp of it, 5.7e-14 of the share
        rng = np.random.default_rng(43)
        k = 3000
        d = -np.concatenate([rng.uniform(744.0, 746.0, k), rng.uniform(699.0, 701.0, k),
                             rng.uniform(0.0, 5.0, k)])
        total = _far_ends(rng, d.size)
        misses = []
        with mp.workdps(50):
            for x, y in zip((total + d).tolist(), total.tolist()):
                got = mass_share(LogBracket.point(x), LogBracket.point(y))
                if not got.lower <= mp.exp(mp.mpf(x) - mp.mpf(y)) <= got.upper:
                    misses.append((x, y))
                assert got.width() <= 2.0 * math.ulp(x - y) * got.upper \
                    + 4.0 * math.ulp(got.upper), (x, y)
        assert misses == []


class TestQuadratureResultEnds:
    def test_log_bracket_encloses_the_mpmath_ends(self):
        # ln(1 -+ r) with r near 1, where ln(1 - r) is large, added to
        # estimates past 128, where the sum rounds by up to half an ulp
        rng = np.random.default_rng(47)
        k = 3000
        rs = np.concatenate([1.0 - 10.0 ** -rng.uniform(1.0, 15.0, k),
                             10.0 ** -rng.uniform(0.0, 16.0, k)])
        ests = _far_ends(rng, rs.size) + rng.uniform(-1.0, 1.0, rs.size)
        misses = []
        with mp.workdps(50):
            for est, r in zip(ests.tolist(), rs.tolist()):
                lo, hi = numerics.QuadratureResult(est, r, 0).log_bracket()
                if not (lo <= mp.mpf(est) + mp.log1p(-mp.mpf(r))
                        and mp.mpf(est) + mp.log1p(mp.mpf(r)) <= hi):
                    misses.append((est, r))
        assert misses == []
        assert numerics.QuadratureResult(2.5, 0.0, 0).log_bracket() == (2.5, 2.5)

    def test_a_ratio_of_integrals_encloses_the_mpmath_corners(self):
        # the ratio of two integrals e^A (1 +- a) and e^B (1 +- b): the
        # difference A - B rounds (a = b = 0 leaves nothing else to hold
        # it), and its ends reach e^(A - B) (1 + a) / (1 - b)
        rng = np.random.default_rng(53)
        k = 1500
        bounds = np.concatenate([np.zeros(k), 10.0 ** -rng.uniform(0.3, 12.0, 3 * k)])
        a, b = rng.permutation(bounds), rng.permutation(bounds)
        ests = _far_ends(rng, 2 * a.size).reshape(2, -1) + rng.uniform(-1.0, 1.0, (2, a.size))
        misses = []
        with mp.workdps(50):
            for x, y, ra, rb in zip(*ests.tolist(), a.tolist(), b.tolist()):
                got = numerics.QuadratureResult(x, ra, 0).over(
                    numerics.QuadratureResult(y, rb, 0))
                lo, hi = got.log_bracket()
                diff, ra, rb = mp.mpf(x) - mp.mpf(y), mp.mpf(ra), mp.mpf(rb)
                if not (lo <= diff + mp.log1p(-ra) - mp.log1p(rb)
                        and diff + mp.log1p(ra) - mp.log1p(-rb) <= hi):
                    misses.append((x, y, float(ra), float(rb)))
        assert misses == []


class TestLogBracketShift:
    @pytest.mark.parametrize("c", [1e-17, -1e-17])
    def test_a_shift_below_half_an_ulp_rounds_outward(self, c):
        # 1 + c rounds to 1.0 either way: to nearest, one end would lie on
        # the wrong side of the true value
        got = LogBracket.point(1.0).shift(c)
        with mp.workdps(50):
            want = mp.mpf(1.0) + mp.mpf(c)
            assert got.lower < want < got.upper
        assert got.width() == math.ulp(1.0) / (2.0 if c < 0 else 1.0)

    def test_random_shifts_enclose_the_mpmath_value(self):
        # ends across the scales the engines shift: near 0, past 1024 in
        # magnitude, and near -745, where a linear mass turns subnormal
        rng = np.random.default_rng(29)
        ends = np.concatenate([rng.uniform(-3.0, 3.0, 4000),
                               rng.uniform(1024.0, 9000.0, 4000) * rng.choice([-1.0, 1.0], 4000),
                               rng.uniform(-746.0, -744.0, 4000)])
        cs = rng.uniform(-800.0, 800.0, ends.size) * 10.0 ** rng.uniform(-18.0, 0.0, ends.size)
        moved = 0
        with mp.workdps(50):
            for end, c in zip(ends.tolist(), cs.tolist()):
                got = LogBracket(end, end).shift(c)
                want = mp.mpf(end) + mp.mpf(c)
                assert got.lower <= want <= got.upper, (end, c)
                assert got.width() <= math.ulp(got.upper), (end, c)
                moved += got.lower != got.upper
        assert moved > ends.size // 2

    @pytest.mark.parametrize("end, c", [(1.0, 0.0), (-745.1, 0.0), (2.0, 1.0),
                                        (-4417.5, 0.25), (1030.0, -6.0)])
    def test_an_exact_shift_keeps_its_bits(self, end, c):
        got = LogBracket(end, end).shift(c)
        assert got.lower == got.upper == end + c

    def test_a_zero_end_stays_zero(self):
        got = LogBracket(LOG_ZERO, 0.5).shift(3.0)
        assert (got.lower, got.upper) == (LOG_ZERO, 3.5)


class TestLogBracketAdd:
    def test_sums_past_1024_nats_enclose_the_mpmath_value(self):
        # a fixed widening would be under half an ulp once an end reaches
        # 1024, where it rounds away; the bound grows with the end.  Sums of
        # two points, |a| in [1030, 6000] and b within 5 of a
        rng = np.random.default_rng(17)
        a = rng.uniform(1030.0, 6000.0, 20_000) * rng.choice([-1.0, 1.0], 20_000)
        b = a + rng.uniform(-5.0, 5.0, a.size)
        with mp.workdps(50):
            for x, y in zip(a.tolist(), b.tolist()):
                got = LogBracket.point(x).add(LogBracket.point(y))
                want = mp.log(mp.exp(x) + mp.exp(y))
                assert got.lower <= want <= got.upper, (x, y)
                assert 1024.0 <= abs(got.upper) and got.width() <= 4.0 * math.ulp(got.upper)

    def test_sums_below_1024_nats_enclose_the_mpmath_value(self):
        # ends in [128, 1024) and near 0, the second term up to 40 below
        # the first, where log1p's argument is small
        rng = np.random.default_rng(19)
        a = np.concatenate([rng.uniform(128.0, 1024.0, 10_000) * rng.choice([-1.0, 1.0], 10_000),
                            rng.uniform(-3.0, 3.0, 5000)])
        b = a - rng.uniform(0.0, 40.0, a.size) ** rng.uniform(0.0, 1.0, a.size)
        misses = []
        with mp.workdps(50):
            for x, y in zip(a.tolist(), b.tolist()):
                got = LogBracket.point(x).add(LogBracket.point(y))
                if not got.lower <= mp.log(mp.exp(x) + mp.exp(y)) <= got.upper:
                    misses.append((x, y))
        assert misses == []

    def test_a_zero_term_keeps_the_other_bits(self):
        got = LogBracket(-3.25, 7.5).add(LogBracket(LOG_ZERO, LOG_ZERO))
        assert got == LogBracket(-3.25, 7.5)
        got = LogBracket(0.5, 1.5).add(LogBracket(LOG_ZERO, 2.0))
        assert got.lower == 0.5 and got.upper > log_add(1.5, 2.0)


class TestLogBracketSumOf:
    @pytest.mark.parametrize("size, draws", [(2, 300), (3, 300), (5, 200), (10, 100),
                                             (100, 20), (1000, 6), (10_000, 2)])
    def test_sums_enclose_the_mpmath_value(self, size, draws):
        # point terms at ends in [128, 1024) and past 1024, each sum's terms
        # spread by up to 0.01 (the sum's rounding at its largest, n terms
        # alike) to 30 nats below its first
        rng = np.random.default_rng(size)
        misses = []
        with mp.workdps(50):
            for _ in range(draws):
                top = rng.choice([rng.uniform(128.0, 1024.0), rng.uniform(1024.0, 5000.0)]) \
                    * rng.choice([-1.0, 1.0])
                terms = top - rng.uniform(0.0, 10.0 ** rng.uniform(-2.0, 1.5), size)
                got = LogBracket.sum_of(terms, terms)
                want = mp.log(mp.fsum(mp.exp(mp.mpf(t)) for t in terms.tolist()))
                if not got.lower <= want <= got.upper:
                    misses.append(terms[:3].tolist())
                assert got.width() <= 4.0 * math.ulp(1.0) * (size + abs(got.upper) + 3.0)
        assert misses == []

    def test_one_term_or_none_keeps_its_bits(self):
        assert LogBracket.sum_of([-2.5], np.array([3.5])) == LogBracket(-2.5, 3.5)
        assert LogBracket.sum_of([], []) == LogBracket(LOG_ZERO, LOG_ZERO)

    def test_add_is_the_two_term_sum(self):
        # both widen by the bound of two terms: the ends agree to the few
        # ulps by which log_add and log_sum_exp round apart
        rng = np.random.default_rng(23)
        for x, y in rng.uniform(-900.0, 900.0, (200, 2)).tolist():
            two = LogBracket.point(x).add(LogBracket.point(y))
            many = LogBracket.sum_of([x, y], [x, y])
            assert abs(two.lower - many.lower) <= 4.0 * math.ulp(two.lower)
            assert abs(two.upper - many.upper) <= 4.0 * math.ulp(two.upper)


import scipy.integrate  # noqa: E402  (used by the Simpson oracle above)
