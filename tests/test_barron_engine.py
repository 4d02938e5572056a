"""Posterior-engine tests.  The primary oracle is brute-force enumeration
over every step density of levels 1 and 2 (72 members), which must agree
with the closed-form marginal to 1e-10 in log space; the continuous
component is checked against mpmath quadrature and a Laplace window."""

import math
from itertools import combinations

import mpmath as mp
import numpy as np
import pytest
from posterior_lab import barron
from posterior_lab.barron import (
    _LOG_LEVEL_NORM,
    BarronEngine,
    BarronPriorConfig,
    log_step_term,
)
from posterior_lab.densities import GaussExpDensity, UniformDensity, sample_gauss_exp
from posterior_lab.diagnostics import DiagnosticSettings, evaluate_diagnostics
from posterior_lab.intervals import LogBracket
from posterior_lab.numerics import (
    LN2,
    LOG_ZERO,
    RandomStream,
    adaptive_quadrature,
    log_sum_exp,
)

mp.mp.dps = 40


def brute_force_step_sum(data, levels=(1, 2), with_likelihood=True):
    """Sum over every step density of the given levels of
    (level weight) x (within-level weight) x (likelihood or indicator)."""
    total = mp.mpf(0)
    for level in levels:
        m = level * level
        cells = 2 * m
        members = list(combinations(range(cells), m))
        w = (6 / mp.pi**2) / (level * level) / len(members)
        for sel in members:
            sel = set(sel)
            ok = all(int(cells * x) in sel for x in data)
            if not ok:
                continue
            total += w * (mp.mpf(2) ** len(data) if with_likelihood else 1)
    return total


def mp_tilt_log_marginal(data):
    """ln of (1/Z0) int_0^1 e^(-1/t - n t + sqrt(2 t) S_n) dt in mpmath, in
    u = sqrt(t), with S_n from mpmath's inverse error function."""
    with mp.workdps(30):
        n = len(data)
        s_n = mp.fsum(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(x) - 1) for x in data)

        def log_integral(n, s):
            def h(u):
                return -1 / u**2 - n * u**2 + mp.sqrt(2) * s * u + mp.log(2 * u)

            lo, hi = mp.mpf("1e-6"), mp.mpf(1)
            for _ in range(120):  # bisect h' = 2/u^3 - 2 n u + sqrt(2) s + 1/u
                mid = (lo + hi) / 2
                if 2 / mid**3 - 2 * n * mid + mp.sqrt(2) * s + 1 / mid > 0:
                    lo = mid
                else:
                    hi = mid
            peak = (lo + hi) / 2
            top = h(peak)
            pts = sorted({mp.mpf(0), mp.mpf(1), *(p for p in (
                peak / 2, peak, (peak + 1) / 2) if 0 < p < 1)})
            return top + mp.log(mp.quad(
                lambda u: mp.exp(h(u) - top) if u > 0 else mp.mpf(0), pts))

        return log_integral(n, s_n) - log_integral(0, mp.mpf(0))


def mp_step_log_sum(data, power=0, x=None, dps=20):
    """ln sum_N w_N 2^n (N^2)_k / (2N^2)_k N^-power [times the cell
    predictive at x] in mpmath.  The levels up to L = max(D, K) + 1 (and
    past the cells x may share with a point) take loggamma; beyond, every
    level holds all K points, and the sum is 2^-K zeta(2 + power, L + 1)
    plus an Euler-Maclaurin nsum of the rest, whose log-ratio is a sum of
    log1p terms (loggamma differences lose every digit at the huge N the
    nsum samples, and nsum's default method is far off on such tails)."""
    pts = np.sort(np.asarray(data, dtype=float))
    k_all, n = len(np.unique(pts)), len(pts)
    gap = np.diff(np.unique(pts)).min() if k_all > 1 else 1.0
    last = max(int(1 / math.sqrt(gap)) + 2, k_all) + 1
    if x is not None:
        last = max(last, int(1 / math.sqrt(np.abs(pts - x).min())) + 2)
    with mp.workdps(dps):
        total = mp.mpf(0)
        for level in range(1, last + 1):
            m = level * level
            cells = (2.0 * m * pts).astype(np.int64)
            k = len(np.unique(cells))
            if k > m:
                continue
            t = mp.exp(mp.loggamma(m + 1) - mp.loggamma(m - k + 1)
                       - mp.loggamma(2 * m + 1) + mp.loggamma(2 * m - k + 1))
            if x is not None:
                t *= 2 if int(2.0 * m * x) in set(cells.tolist()) \
                    else mp.mpf(2 * (m - k)) / (2 * m - k)
            total += t / mp.mpf(level) ** (2 + power)

        def rest(level):
            m = level * level
            v = mp.exp(mp.fsum(mp.log1p(-i / m) - mp.log1p(-i / (2 * m))
                               for i in range(k_all)))
            if x is not None:
                v *= 2 * (m - k_all) / (2 * m - k_all)
            return (v - 1) / level ** (2 + power)

        tail = mp.zeta(2 + power, last + 1) + mp.nsum(
            rest, [last + 1, mp.inf], method="euler-maclaurin")
        return mp.log(6 / mp.pi**2 * (total + tail / mp.mpf(2) ** k_all)) + n * mp.log(2)


class TestOccupancyTracking:
    def test_first_point(self):
        e = BarronEngine()
        e.add_point(0.5)
        assert e.stats.n == 1
        assert e.stats.s_n == 0.0  # PhiInv(0.5) = 0
        occ = e.occupancy
        for level in (1, 2, 3, 5):
            assert occ.k(level) == 1

    def test_small_example_cells(self):
        e = BarronEngine()
        e.add_points([0.1, 0.3, 0.7])
        assert e.occupancy.k(1) == 2   # halves {0, 1}
        assert e.occupancy.k(2) == 3   # eighths {0, 2, 5}

    def test_incremental_matches_scratch(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            data = rng.uniform(0.001, 0.999, int(rng.integers(1, 40)))
            e = BarronEngine()
            e.add_points(data)
            pts = np.sort(data)
            for level in range(1, e.occupancy.k_by_level.size + 1):
                cells = (2.0 * level * level * pts).astype(np.int64)
                want = len(np.unique(cells))
                assert e.occupancy.k(level) == want, (level, data)

    def test_k_monotone_in_n_and_bounds(self):
        rng = np.random.default_rng(3)
        e = BarronEngine()
        prev = None
        for x in rng.uniform(0.01, 0.99, 50):
            e.add_point(float(x))
            occ = e.occupancy
            ks = occ.k_by_level
            n = occ.n
            levels = np.arange(1, ks.size + 1)
            assert np.all(ks >= 1)
            assert np.all(ks <= np.minimum(n, 2 * levels * levels))
            if prev is not None:
                assert np.all(ks[: prev.size] >= prev)
            prev = ks.copy()

    def test_distinct_level_relation(self):
        e = BarronEngine()
        e.add_points([0.1, 0.30001, 0.3, 0.9])
        nd = e.distinct_level()
        assert 1.0 / (2.0 * nd * nd) < e.stats.min_gap
        assert e.occupancy.k(nd) == e.stats.n_distinct

    def test_duplicates(self):
        e = BarronEngine()
        e.add_points([0.25, 0.25, 0.75])
        assert e.stats.n == 3
        assert e.stats.n_distinct == 2
        assert e.occupancy.k(1) == 2

    def test_rejects_out_of_range(self):
        e = BarronEngine()
        for x in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                e.add_point(x)


class TestLogStepTerm:
    def test_enumeration_example(self):
        # oracle: 70-member enumeration at level 2 gives (6/pi^2)/7
        want = float(mp.log((6 / mp.pi**2) / 7))
        assert log_step_term(2, 3, 3, True) == pytest.approx(want, abs=1e-12)

    def test_level_one_overflow_is_zero(self):
        assert log_step_term(1, 2, 5, True) == LOG_ZERO

    def test_no_likelihood_single_point(self):
        want = float(mp.log((6 / mp.pi**2) / 2))
        assert log_step_term(1, 1, 1, False) == pytest.approx(want, abs=1e-12)

    def test_occupancy_above_n_rejected(self):
        with pytest.raises(ValueError):
            log_step_term(3, 4, 2, True)

    @pytest.mark.parametrize("level", [0, -1])
    def test_level_below_one_rejected(self, level):
        with pytest.raises(ValueError):
            log_step_term(level, 0, 1, True)


class TestStepMarginal:
    def test_enumeration_equivalence(self):
        # 50 random datasets, n <= 4, truncated to levels {1,2}: closed form
        # must match the 72-density brute force to 1e-10 in log space
        rng = np.random.default_rng(1234)
        checked = 0
        for _ in range(50):
            n = int(rng.integers(1, 5))
            data = [float(x) for x in rng.uniform(0.001, 0.999, n)]
            e = BarronEngine()
            e.add_points(data)
            lo, hi = e._head(2)
            for with_lik in (True, False):
                shift = 0.0 if with_lik else -n * LN2
                mine = LogBracket.sum_of(lo + shift, hi + shift)
                brute = brute_force_step_sum(data, (1, 2), with_lik)
                if brute == 0:
                    assert mine.upper == LOG_ZERO
                else:
                    want = float(mp.log(brute))
                    assert mine.lower - 1e-10 <= want <= mine.upper + 1e-10, data
                    assert mine.width() <= 1e-12
            checked += 1
        assert checked == 50

    def test_single_point_prior_mass(self):
        # every level keeps exactly half its members: marginal = 1/2
        e = BarronEngine()
        e.add_point(0.3)
        br = e.step_marginal(with_likelihood=False)
        assert br.width() < 1e-12
        assert math.exp(br.midpoint()) == pytest.approx(0.5, abs=1e-12)

    def test_prior_normalization_telescopes(self):
        # n = 0: the marginal is the full level-weight sum = 1
        br = BarronEngine().step_marginal(with_likelihood=False)
        assert br.width() < 1e-12
        assert math.exp(br.midpoint()) == pytest.approx(1.0, abs=1e-12)

    def test_bracket_narrows_and_nests(self):
        # the closed form lies inside the level loop plus the old tail
        # bracket at 50 and at 500 levels, which nest and narrow
        data = [0.1, 0.3, 0.7]
        e = BarronEngine()
        e.add_points(data)
        b50, b500 = loop_bracket(data, 50), loop_bracket(data, 500)
        closed = e.step_marginal()
        assert b50.width() / abs(b50.midpoint()) <= 1e-3
        assert b500.width() <= b50.width()
        assert b50.lower <= b500.lower and b500.upper <= b50.upper
        assert b500.lower <= closed.lower and closed.upper <= b500.upper
        assert closed.width() <= 1e-12

    def test_bracket_soundness_random(self):
        # on random small instances the closed form lies inside the loop
        # brackets at 50 and 500 levels, up to the documented outward slack
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            data = rng.uniform(0.001, 0.999, n)
            e = BarronEngine()
            e.add_points(data)
            closed = e.step_marginal()
            for levels in (50, 500):
                ref = loop_bracket(data, levels)
                assert closed.lower >= ref.lower - 5e-13, levels
                assert closed.upper <= ref.upper + 5e-13, levels

    def test_tail_formula_against_wide_truncation(self):
        data = [0.12, 0.48, 0.86]
        e = BarronEngine()
        e.add_points(data)
        closed = e.step_marginal()
        for levels in (60, 6000):
            ref = loop_bracket(data, levels)
            assert ref.lower <= closed.lower and closed.upper <= ref.upper, levels


ORACLE_DATA = {
    "uniform n=100": lambda: [float(x) for x in RandomStream(1, 0).uniform_open(100)],
    "lattice K=200": lambda: [(i + 0.5) / 200 for i in range(200)],
}


class TestClosedFormOracle:
    # n = 100 has its cut at D; the lattice has D = 15 and its cut at K/2 = 100
    @pytest.mark.parametrize("case", ORACLE_DATA)
    def test_step_tails_enclose_mpmath(self, case):
        data = ORACLE_DATA[case]()
        e = BarronEngine()
        e.add_points(data)
        s = mp_step_log_sum(data)
        assert e.step_marginal().contains(s)
        assert e.step_marginal().width() <= 1e-9
        mean_inv = mp.exp(mp_step_log_sum(data, power=1) - s)
        assert e.posterior_over_n().mean_inv_level.contains(mean_inv)
        pred = mp.exp(mp_step_log_sum(data, x=0.37) - s)
        assert e.step_predictive(0.37).contains(pred)

    def test_lattice_cut_is_half_the_distinct_points(self):
        e = BarronEngine()
        e.add_points(ORACLE_DATA["lattice K=200"]())
        assert e.distinct_level() == 15
        assert e.occupancy.k_by_level.size == 100


class TestGaussMarginal:
    def test_empty_data_is_exactly_one(self):
        res = BarronEngine().gauss_marginal()
        assert res.log_estimate == 0.0
        assert res.rel_error_bound == 0.0

    def test_single_midpoint_oracle(self):
        # mpmath: ln[(1/Z0) int e^(-1/t - t) dt] = -0.721139028767988
        e = BarronEngine()
        e.add_point(0.5)
        res = e.gauss_marginal()
        assert res.log_estimate == pytest.approx(-0.721139028767988, abs=1e-8)

    def test_two_quadrature_schemes_agree(self):
        est = []
        for tol in (1e-8, 1e-11):
            e = BarronEngine(quad_tol=tol)
            e.add_point(0.5)
            est.append(e.gauss_marginal().log_estimate)
        assert est[0] == pytest.approx(est[1], abs=1e-7)

    def test_laplace_window_n400(self):
        # W_n = 0 data: ln marginal should sit in the Laplace window around
        # -2 sqrt(n); oracle check: -2 sqrt n - 0.75 ln n + ln(sqrt(pi)/Z0)
        n = 400
        e = BarronEngine()
        half = [0.25, 0.75]  # PhiInv antisymmetric pair: S stays 0
        from posterior_lab.numerics import inv_norm_cdf, norm_cdf
        z = inv_norm_cdf(0.25)
        for _ in range(n // 2):
            e.add_point(norm_cdf(z))
            e.add_point(norm_cdf(-z))
        assert abs(e.stats.s_n) < 1e-9
        got = e.gauss_marginal().log_estimate
        laplace = -2.0 * math.sqrt(n) - 0.75 * math.log(n) \
            + math.log(math.sqrt(math.pi) / 0.148495506775922)
        assert got == pytest.approx(laplace, abs=1.0)
        lo = -2.0 * math.sqrt(n) - math.log(n) - 10.0
        hi = -2.0 * math.sqrt(n) + 10.0
        assert lo <= got <= hi

    def test_monotone_in_n_for_centered_extensions(self):
        # appending PhiInv-antisymmetric pairs keeps S_n = 0 and multiplies
        # the integrand by e^(-2 theta) <= 1 pointwise
        from posterior_lab.numerics import inv_norm_cdf, norm_cdf
        e = BarronEngine()
        z = inv_norm_cdf(0.3)
        prev = e.gauss_marginal().log_estimate
        for _ in range(4):
            e.add_point(norm_cdf(z))
            e.add_point(norm_cdf(-z))
            cur = e.gauss_marginal().log_estimate
            assert cur <= prev + 1e-9
            prev = cur


class TestPosteriorSplit:
    def test_prior_split_at_n0(self):
        f0, fs = BarronEngine().posterior_split()
        assert f0.midpoint() == pytest.approx(0.5, abs=1e-12)
        assert fs.midpoint() == pytest.approx(0.5, abs=1e-12)

    def test_matched_endpoints_sum_to_one(self):
        # both masses enclose the oracle split, and the matched ends are
        # complements up to 4 ulp
        data = [float(x) for x in RandomStream(17, 0).uniform_open(40)]
        e = BarronEngine()
        e.add_points(data)
        f0, fs = e.posterior_split()
        g = mp_tilt_log_marginal(data)
        s = mp_step_log_sum(data)
        want_f0 = 1 / (1 + mp.exp(s - g))
        assert f0.contains(want_f0) and fs.contains(1 - want_f0)
        assert abs(f0.lower + fs.upper - 1.0) <= 4 * math.ulp(1.0)
        assert abs(f0.upper + fs.lower - 1.0) <= 4 * math.ulp(1.0)
        for b in (f0, fs):
            assert 0.0 <= b.lower <= b.upper <= 1.0

    @pytest.mark.parametrize("n, ln_f0", [(400, -35.943), (1000, math.log(7.97e-26)),
                                          (4000, math.log(2.2e-48))])
    def test_tilt_mass_below_machine_epsilon(self, n, ln_f0):
        # the tilt mass under uniform data falls far below 1e-16 and must
        # neither flush to 0 nor miss the oracle: f0 = G / (G + S) with G
        # from mpmath and S anywhere in the step bracket
        data = [float(x) for x in RandomStream(1, 0).uniform_open(n)]
        e = BarronEngine()
        e.add_points(data)
        f0, _ = e.posterior_split()
        g = mp_tilt_log_marginal(data)
        sm = e.step_marginal()
        assert f0.lower <= 1 / (1 + mp.exp(sm.upper - g))
        assert 1 / (1 + mp.exp(sm.lower - g)) <= f0.upper
        assert 0.0 < f0.lower
        assert math.log(f0.upper) == pytest.approx(ln_f0, abs=5e-3)

    def test_uniform_truth_concentrates_on_steps(self):
        e = BarronEngine(truth=UniformDensity())
        e.add_points(RandomStream(1, 0).uniform_open(300))
        _, fs = e.posterior_split()
        assert fs.lower > 0.99

    def test_tilt_truth_concentrates_on_tilt(self):
        data = sample_gauss_exp(GaussExpDensity(0.5), RandomStream(21, 0), 300)
        e = BarronEngine(truth=GaussExpDensity(0.5))
        e.add_points([float(x) for x in data])
        _, fs = e.posterior_split()
        assert fs.upper < 0.01

    def test_nonuniform_prior_weight(self):
        cfg = BarronPriorConfig(continuous_weight=0.7)
        f0, fs = BarronEngine(prior=cfg).posterior_split()
        assert f0.midpoint() == pytest.approx(0.7, abs=1e-12)
        assert fs.midpoint() == pytest.approx(0.3, abs=1e-12)


class TestPosteriorTheta:
    def test_full_interval_mass_one(self):
        e = BarronEngine()
        e.add_points([0.2, 0.6])
        post = e.posterior_theta()
        m = post.interval_mass(0.0, 1.0)
        assert m.lower == 1.0 and m.upper == 1.0
        near = post.interval_mass(0.0, 0.5)
        rest = post.interval_mass(0.5, 1.0)
        assert near.lower + rest.lower <= 1.0 <= near.upper + rest.upper

    def test_prior_ball_full(self):
        post = BarronEngine().posterior_theta()
        b = post.prior_ball_mass(1.0)
        assert b.midpoint() == pytest.approx(1.0, abs=1e-9)

    def test_prior_ball_small_delta_oracle(self):
        # mpmath oracle: int_0^0.1 e^(-1/t) dt / Z0 = 2.5793645537e-6; the
        # tested invariant is positivity for every delta > 0 (KL-support
        # witness: KL(uniform, f_theta) = theta)
        post = BarronEngine().posterior_theta()
        b = post.prior_ball_mass(0.1)
        assert b.lower > 0.0
        assert b.midpoint() == pytest.approx(2.5793645537e-6, rel=1e-6)
        for delta in (0.02, 0.05, 0.3, 0.9):
            assert post.prior_ball_mass(delta).lower > 0.0

    def test_interval_mass_additive(self):
        e = BarronEngine()
        e.add_points(RandomStream(2, 0).uniform_open(25))
        post = e.posterior_theta()
        a = post.interval_mass(0.0, 0.37)
        b = post.interval_mass(0.37, 1.0)
        assert a.lower + b.lower <= 1.0 + 1e-10
        assert a.upper + b.upper >= 1.0 - 1e-10

    def test_log_density_formula(self):
        e = BarronEngine()
        e.add_points([0.6, 0.7])
        post = e.posterior_theta()
        s = e.stats.s_n
        theta = 0.42
        want = -1.0 / theta - 2 * theta + math.sqrt(2 * theta) * s
        assert post.log_density(theta) == pytest.approx(want, abs=1e-12)
        assert post.log_density(0.0) == LOG_ZERO


def prior_level_check(lp):
    """The first 100 level weights and the weight past the cut are those of
    the prior, 6/(pi^2 N^2)."""
    levels = lp.levels[:100].astype(float)
    want = (6.0 / math.pi**2) / levels ** 2
    mid = 0.5 * (lp.weights_lower[:100] + lp.weights_upper[:100])
    assert np.allclose(mid, want, rtol=1e-10, atol=0.0)
    tail = 1.0 - float(6 / mp.pi**2 * mp.fsum(1 / mp.mpf(v) ** 2
                                              for v in lp.levels.tolist()))
    assert lp.tail_weight.lower - 1e-12 <= tail <= lp.tail_weight.upper + 1e-12


class TestPosteriorOverLevels:
    def test_prior_weights_at_n0(self):
        lp = BarronEngine().posterior_over_n()
        prior_level_check(lp)
        assert np.allclose(lp.weights_lower, lp.weights_upper, rtol=1e-12)

    def test_single_point_keeps_prior_shape(self):
        # every level keeps ratio 1/2, so weights stay proportional to prior
        e = BarronEngine()
        e.add_point(0.77)
        prior_level_check(e.posterior_over_n())

    def test_uniform_data_pushes_to_fine_levels(self):
        prior_mean_inv = 6.0 / math.pi**2 * 1.2020569031595943  # zeta(3)
        e = BarronEngine(truth=UniformDensity())
        e.add_points(RandomStream(8, 0).uniform_open(1000))
        lp = e.posterior_over_n()
        assert lp.mean_inv_level.upper <= prior_mean_inv
        assert lp.mean_inv_level.upper < 0.2  # far finer than the prior


class TestSetMass:
    def test_empty_set_has_mass_zero(self):
        e = BarronEngine(truth=UniformDensity())
        e.add_points(RandomStream(1, 0).uniform_open(50))
        m = e.set_mass(False)
        assert (m.lower, m.upper) == (0.0, 0.0)

    @pytest.mark.parametrize("n", [0, 1, 50])
    def test_whole_space_encloses_one(self, n):
        e = BarronEngine(truth=UniformDensity())
        e.add_points(RandomStream(1, 0).uniform_open(n))
        assert e.set_mass(True, [(0.0, 1.0)]).contains(1.0)

    def test_step_part_is_the_step_mass(self):
        e = BarronEngine(truth=UniformDensity())
        e.add_points(RandomStream(1, 0).uniform_open(50))
        assert e.set_mass(True) == e.posterior_split()[1]


class TestHellingerBallMass:
    def test_diameter_bound(self):
        e = BarronEngine()
        assert e.hellinger_ball_mass(math.sqrt(2.0)).upper == 0.0
        assert e.hellinger_ball_mass(1.5).upper == 0.0

    def test_prior_value_below_step_distance(self):
        b = BarronEngine().hellinger_ball_mass(0.5)
        assert b.lower >= 0.5 - 1e-9

    def test_matches_split_for_large_eps_uniform_run(self):
        e = BarronEngine(truth=UniformDensity())
        e.add_points(RandomStream(1, 0).uniform_open(400))
        _, fs = e.posterior_split()
        hb = e.hellinger_ball_mass(0.7)
        assert hb.lower >= fs.lower - 1e-3
        assert hb.upper <= fs.upper + 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            BarronEngine().hellinger_ball_mass(0.0)


class TestStepPredictive:
    def test_prior_predictive_exactly_uniform(self):
        e = BarronEngine()
        xs = (np.arange(1024) + 0.5) / 1024
        for x in xs[::97]:
            b = e.step_predictive(float(x))
            assert abs(b.midpoint() - 1.0) <= 1e-9
            assert b.width() <= 1e-9

    def test_occupied_cell_level_one(self):
        # data in cell 0 of the halves partition: the only surviving level-1
        # member selects that cell, so its predictive there is exactly 2
        e = BarronEngine()
        e.add_point(0.2)
        factors = e._predictive_log_factors(0.3, 4)
        assert factors[0] == pytest.approx(math.log(2.0), abs=1e-12)
        # and 2 (N^2-k)/(2N^2-k) on an unoccupied cell (level 2)
        assert factors[1] == pytest.approx(
            math.log(2.0 * (4 - 1) / (8 - 1)), abs=1e-12)

    def test_kolmogorov_trend_uniform_truth(self):
        e = BarronEngine(truth=UniformDensity())
        data = RandomStream(1, 0).uniform_open(1000)
        e.add_points(data[:10])
        ks10 = e.predictive_uniform_ks(256)
        e.add_points(data[10:])
        ks1000 = e.predictive_uniform_ks(256)
        assert ks1000 <= ks10

    def test_unoccupied_factor_hoist_is_bitwise_equal(self):
        # the per-state unoccupied-cell factor against the per-x formula it
        # replaced; 300 points make k exceed N^2 on the low levels
        e = BarronEngine()
        e.add_points(_uniform_data(300))
        m_trunc = e._step_sum().lo.size
        w2 = barron._level_table(m_trunc)[0]
        ks = e._occupancies(m_trunc).astype(np.float64)
        for x in (0.001, 0.2, 0.5, 0.73, 0.999):
            c_x = (w2 * x).astype(np.int64)
            occupied = np.zeros(m_trunc, dtype=bool)
            for nb in e._neighbours(x):
                occupied |= c_x == (w2 * nb).astype(np.int64)
            m = w2 / 2.0
            with np.errstate(divide="ignore", invalid="ignore"):
                unocc = np.log(2.0) + np.log(m - ks) - np.log(2.0 * m - ks)
            want = np.where(occupied, math.log(2.0), unocc)
            want[np.isnan(want)] = LOG_ZERO
            got = e._predictive_log_factors(x, m_trunc)
            assert (got == want).all(), x
        assert (got == LOG_ZERO).any()

    def test_predictive_integrates_to_one(self):
        e = BarronEngine()
        e.add_points([0.15, 0.5, 0.85])
        xs = (np.arange(512) + 0.5) / 512
        mids = [e.step_predictive(float(x)).midpoint() for x in xs]
        assert np.mean(mids) == pytest.approx(1.0, abs=5e-3)


# -- the per-state cache against the per-level loop it replaced --------------

def _uniform_data(n):
    return [float(x) for x in RandomStream(65, 0).uniform_open(n)]


CACHE_DATA = {
    "uniform n=300": lambda: _uniform_data(300),
    "uniform n=2000": lambda: _uniform_data(2000),
    "gauss:0.5 n=1500": lambda: [float(x) for x in sample_gauss_exp(
        GaussExpDensity(0.5), RandomStream(7, 0), 1500)],
}


# rounding allowance of the test-local level loop, in nats
LOOP_ROUNDING = 1e-10


def recount_occupancy(data, levels):
    pts = np.sort(np.asarray(data))
    return np.array([len(np.unique((2.0 * lv * lv * pts).astype(np.int64)))
                     for lv in range(1, levels + 1)], dtype=np.int64)


def loop_step_log_terms(ks, n, with_likelihood):
    """ln term per level, one level at a time, with the exact arithmetic the
    engine's cached ratios must reproduce."""
    out = np.full(ks.size, LOG_ZERO)
    lik = n * LN2 if with_likelihood else 0.0
    idx = np.arange(max(1, int(ks.max())), dtype=np.float64)
    for i in range(ks.size):
        level = i + 1
        m = level * level
        k = int(ks[i])
        if k > m:
            continue
        if k == 0:
            r = 0.0
        else:
            sl = idx[:k]
            r = float(np.sum(np.log(m - sl)) - np.sum(np.log(2 * m - sl)))
        out[i] = _LOG_LEVEL_NORM - 2.0 * math.log(level) + r + lik
    return out


def old_tail(n, k, levels):
    """The tail bracket the level loop was cut with: past ``levels`` the
    ratio lies between r_(levels+1) and 2^-k, and sum_{N > levels} N^-2 is a
    trigamma value."""
    base = _LOG_LEVEL_NORM + float(mp.log(mp.polygamma(1, levels + 1))) + n * LN2
    m1 = (levels + 1) ** 2
    r_next = float(mp.log(mp.rf(m1 - k + 1, k) / mp.rf(2 * m1 - k + 1, k)))
    r_inf = -k * LN2
    return LogBracket(base + min(r_next, r_inf), base + max(r_next, r_inf))


def loop_bracket(data, levels, with_likelihood=True):
    """The level loop over 1..levels plus the old tail: the step-marginal
    bracket before the closed form, valid from the distinct-cell level on."""
    ks = recount_occupancy(data, levels)
    terms = loop_step_log_terms(ks, len(data), with_likelihood)
    k = len(np.unique(np.asarray(data)))
    tail = old_tail(len(data) if with_likelihood else 0, k, levels)
    return LogBracket.point(log_sum_exp(terms)).add(tail)


def loop_level_posterior(terms, tail, total):
    """Level weights and the mean-1/N bracket, one level at a time."""
    m_trunc = terms.size
    w_lo = np.array([math.exp(t - total.upper) if t - total.upper > LOG_ZERO
                     else 0.0 for t in terms])
    w_hi = np.array([min(1.0, math.exp(t - total.lower))
                     if t - total.lower > LOG_ZERO else 0.0 for t in terms])
    inv_terms = terms - np.log(np.arange(1, m_trunc + 1, dtype=float))
    num_lo = log_sum_exp(inv_terms)
    num_hi = log_sum_exp(np.append(inv_terms, tail.upper - math.log(m_trunc + 1)))
    lo, hi = num_lo - total.upper, num_hi - total.lower
    mean_inv = (math.exp(lo) if lo > LOG_ZERO else 0.0,
                min(1.0, math.exp(hi) if hi > LOG_ZERO else 0.0))
    return w_lo, w_hi, mean_inv


@pytest.fixture(scope="module")
def cached_engines():
    out = {}
    for case, make in CACHE_DATA.items():
        data = make()
        e = BarronEngine()
        e.add_points(data)
        out[case] = (e, data)
    return out


class TestStepStateCache:
    @pytest.mark.parametrize("case", CACHE_DATA)
    def test_occupancy_matches_recount_at_every_level(self, cached_engines, case):
        e, data = cached_engines[case]
        occ = e.occupancy
        m_trunc = max(occ.distinct_level, -(-occ.n_distinct // 2))
        assert occ.k_by_level.size == m_trunc
        assert occ.distinct_level <= m_trunc
        assert np.array_equal(occ.k_by_level, recount_occupancy(data, m_trunc))

    @pytest.mark.parametrize("case", CACHE_DATA)
    def test_step_brackets_equal_the_level_loop(self, cached_engines, case):
        # against the level loop the closed form replaced, cut at the old
        # M = max(D, 4n) with the old tail bracket: the step brackets, the
        # level weights and the mean of 1/N all lie inside the loop's.  The
        # loop carries no rounding term; LOOP_ROUNDING covers its sums of up
        # to n logs per level, which is all of its width where the tail
        # holds no mass (the tilt-truth case)
        e, data = cached_engines[case]
        m_old = max(e.distinct_level(), 4 * e.n)
        for with_lik in (True, False):
            ref = loop_bracket(data, m_old, with_lik)
            got = e.step_marginal(with_likelihood=with_lik)
            assert ref.lower - LOOP_ROUNDING <= got.lower, with_lik
            assert got.upper <= ref.upper + LOOP_ROUNDING, with_lik
            assert got.width() <= 1e-9
        terms = loop_step_log_terms(recount_occupancy(data, m_old), e.n, True)
        tail = old_tail(e.n, e.stats.n_distinct, m_old)
        total = LogBracket.point(log_sum_exp(terms)).add(tail)
        w_lo, w_hi, mean_inv = loop_level_posterior(terms, tail, total)
        lp = e.posterior_over_n()
        m, slack = lp.levels.size, math.exp(2 * LOOP_ROUNDING)
        assert np.all(w_lo[:m] <= lp.weights_lower * slack)
        assert np.all(lp.weights_upper <= w_hi[:m] * slack)
        assert mean_inv[0] <= lp.mean_inv_level.lower * slack
        assert lp.mean_inv_level.upper <= mean_inv[1] * slack

    @pytest.mark.parametrize("case", CACHE_DATA)
    def test_queried_then_fed_equals_fresh(self, case):
        data = CACHE_DATA[case]()
        fed = BarronEngine()
        fed.add_points(data[:-1])
        fed.posterior_over_n()
        fed.step_marginal(with_likelihood=False)
        fed.posterior_split()
        fed.posterior_theta().interval_mass(0.2, 0.6)
        fed.add_point(data[-1])
        fresh = BarronEngine()
        fresh.add_points(data)
        assert np.array_equal(fed.occupancy.k_by_level, fresh.occupancy.k_by_level)
        for with_lik in (True, False):
            assert fed.step_marginal(with_likelihood=with_lik) == \
                fresh.step_marginal(with_likelihood=with_lik)
        assert fed.posterior_split() == fresh.posterior_split()
        assert fed.gauss_marginal() == fresh.gauss_marginal()
        assert fed.posterior_theta().interval_mass(0.2, 0.6) == \
            fresh.posterior_theta().interval_mass(0.2, 0.6)
        a, b = fed.posterior_over_n(), fresh.posterior_over_n()
        assert np.array_equal(a.weights_lower, b.weights_lower)
        assert np.array_equal(a.weights_upper, b.weights_upper)
        assert a.mean_inv_level == b.mean_inv_level

    def test_one_full_tilt_integral_per_state(self, monkeypatch):
        full = []

        def counting(f, a, b, *args, **kwargs):
            if (a, b) == (0.0, 1.0):
                full.append(1)
            return adaptive_quadrature(f, a, b, *args, **kwargs)

        barron._z0.cache_clear()
        monkeypatch.setattr(barron, "adaptive_quadrature", counting)
        data = _uniform_data(300)
        e = BarronEngine(truth=UniformDensity())
        e.add_points(data[:-1])
        for _ in range(2):
            evaluate_diagnostics(e, DiagnosticSettings())
            e.gauss_marginal()
        assert len(full) == 2  # Z0 and this state's normalizer
        e.add_point(data[-1])
        evaluate_diagnostics(e, DiagnosticSettings())
        BarronEngine().posterior_theta().prior_ball_mass(0.3)
        assert len(full) == 3  # the new state's normalizer; Z0 is reused

    def test_raised_distinct_level_keeps_every_occupancy(self):
        # a near-duplicate lifts the distinct-cell level far past 4n, an
        # exact duplicate leaves it alone; the levels that join the stored
        # ones must hold the recount, and the step brackets those of a
        # fresh engine
        data = _uniform_data(60)
        data += [data[17] + 1e-7, data[5]] + _uniform_data(80)[60:]
        e = BarronEngine()
        for i, x in enumerate(data, 1):
            e.add_point(x)
            occ = e.occupancy
            m_trunc = max(occ.distinct_level, -(-occ.n_distinct // 2))
            assert occ.k_by_level.size == m_trunc
            assert np.array_equal(occ.k_by_level,
                                  recount_occupancy(data[:i], m_trunc)), i
            fresh = BarronEngine()
            fresh.add_points(data[:i])
            for with_lik in (True, False):
                assert e.step_marginal(with_likelihood=with_lik) == \
                    fresh.step_marginal(with_likelihood=with_lik), i
        assert e.distinct_level() > 4 * e.n
        assert e.stats.n_distinct == e.n - 1
