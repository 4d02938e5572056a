"""Posterior-engine tests.  The primary oracle is brute-force enumeration
over every step density of levels 1 and 2 (72 members), which must agree
with the closed-form marginal to 1e-10 in log space; the continuous
component is checked against mpmath quadrature and a Laplace window."""

import functools
import math
import tracemalloc
from itertools import combinations

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import inv_norm_cdf_point, step_predictive
from posterior_lab import barron
from posterior_lab.barron import (
    _LOG_LEVEL_NORM,
    BarronEngine,
    BarronPriorConfig,
    StepState,
)
from posterior_lab.densities import (
    GaussExpDensity,
    StepDensity,
    UniformDensity,
)
from posterior_lab.diagnostics import (
    DiagnosticSettings,
    barron_statistics,
    evaluate_diagnostics,
)
from posterior_lab.intervals import LogBracket
from posterior_lab.numerics import (
    LN2,
    LOG_ZERO,
    RandomStream,
    adaptive_quadrature,
    log_sum_exp,
)

mp.mp.dps = 40


def exact_cells(w, x):
    """floor(w x) for integer-valued w and floats x, elementwise over their
    broadcast, as int64.  The floor of the float product is exact where
    that product is not an integer; every element where it is one is redone
    in Python integers from float.as_integer_ratio."""
    w, x = np.broadcast_arrays(np.asarray(w, dtype=np.float64),
                               np.asarray(x, dtype=np.float64))
    f = w * x
    out = np.floor(f).astype(np.int64)
    tie = np.flatnonzero(out == f)
    out.flat[tie] = [int(wi) * p // q for wi, (p, q) in zip(
        w.flat[tie].tolist(), map(float.as_integer_ratio, x.flat[tie].tolist()))]
    return out


def occupancy_at(e, level):
    """k_N of an engine at any level N: the stored occupancies up to the
    cut, n_distinct from the distinct-cell level on."""
    occ = e.occupancy
    if level <= occ.k_by_level.size:
        return int(occ.k_by_level[level - 1])
    assert level >= occ.distinct_level
    return occ.n_distinct


def level_weights(e):
    """(lower, upper) posterior weights of the levels 1..M within the step
    component, and the weight past the cut M, from the engine's step sum."""
    st = e.step
    (lo, hi), total = st.head, st.step_sum
    return (np.exp(lo - total.upper), np.minimum(1.0, np.exp(hi - total.lower)),
            barron._mass(st.tail, total))


def first_two_head_terms(e):
    """The head's enclosures at the levels 1 and 2, past the cut too, where
    every level holds all n_distinct points."""
    st = e.step
    return barron._head(np.r_[st.k_by_level, [st.n_distinct] * 2][:2], st.n)


def brute_force_step_sum(data, levels=(1, 2), with_likelihood=True):
    """Sum over every step density of the given levels of
    (level weight) x (within-level weight) x (likelihood or indicator)."""
    total = mp.mpf(0)
    for level in levels:
        m = level * level
        cells = 2 * m
        members = list(combinations(range(cells), m))
        w = (6 / mp.pi**2) / (level * level) / len(members)
        occupied = set(exact_cells(cells, data).tolist())
        for sel in members:
            if not occupied <= set(sel):
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
            cells = exact_cells(2 * m, pts)
            k = len(np.unique(cells))
            if k > m:
                continue
            t = mp.exp(mp.loggamma(m + 1) - mp.loggamma(m - k + 1)
                       - mp.loggamma(2 * m + 1) + mp.loggamma(2 * m - k + 1))
            if x is not None:
                t *= 2 if exact_cells(2 * m, [x])[0] in set(cells.tolist()) \
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
        assert e.n == 1
        assert e._s == 0.0  # PhiInv(0.5) = 0
        for level in (1, 2, 3, 5):
            assert occupancy_at(e, level) == 1

    def test_small_example_cells(self):
        e = BarronEngine()
        e.add_points([0.1, 0.3, 0.7])
        assert occupancy_at(e, 1) == 2   # halves {0, 1}
        assert occupancy_at(e, 2) == 3   # eighths {0, 2, 5}

    def test_decimal_point_below_a_cell_boundary(self):
        # 50 * 0.3 rounds up to 15, but the float 0.3 lies below 3/10, so at
        # every level N divisible by 5 it sits one cell below 0.305
        e = BarronEngine()
        e.add_points([0.3, 0.305, 0.9])
        assert occupancy_at(e, 5) == 3
        assert np.array_equal(e.occupancy.k_by_level,
                              recount_occupancy([0.3, 0.305, 0.9], e.step.cut))

    def test_incremental_matches_scratch(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            data = rng.uniform(0.001, 0.999, int(rng.integers(1, 40)))
            e = BarronEngine()
            e.add_points(data)
            pts = np.sort(data)
            for level in range(1, e.occupancy.k_by_level.size + 1):
                want = len(np.unique(exact_cells(2 * level * level, pts)))
                assert occupancy_at(e, level) == want, (level, data)

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
        nd = e.step.distinct_level
        assert 1.0 / (2.0 * nd * nd) < e.step.min_gap
        assert occupancy_at(e, nd) == e.occupancy.n_distinct

    def test_duplicates(self):
        e = BarronEngine()
        e.add_points([0.25, 0.25, 0.75])
        assert e.n == 3
        assert e.occupancy.n_distinct == 2
        assert occupancy_at(e, 1) == 2

    def test_rejects_out_of_range(self):
        e = BarronEngine()
        for x in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                e.add_point(x)

    def test_add_point_compares_below_its_own_separating_level(self, monkeypatch):
        # a near-duplicate pair lifts D to 31623, but a point 0.5 from its
        # nearest neighbour is compared on floor(sqrt(0.5 / 0.5)) + 1 = 2
        # levels: the compares do not grow with D
        e = BarronEngine()
        e.add_points([0.3, 0.3 + 1e-9])
        assert e.step.distinct_level == 31623
        asked, table = [], barron._level_table

        def recording(m):
            asked.append(m)
            return table(m)

        monkeypatch.setattr(barron, "_level_table", recording)
        e.add_point(0.8)
        assert max(asked, default=0) <= 2
        monkeypatch.undo()
        assert np.array_equal(e.occupancy.k_by_level,
                              recount_occupancy([0.3, 0.3 + 1e-9, 0.8], 31623))


def log_step_term(level, k, n, with_likelihood=True):
    """ln of the level-N term (6/(pi^2 N^2)) [2^n] (N^2)_k / (2N^2)_k, one log
    factor at a time: the oracle the engine's closed-form head replaced.
    LOG_ZERO when k > N^2; k > n or a level below 1 is an error."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if k > n:
        raise ValueError(f"occupancy k={k} cannot exceed the sample size n={n}")
    m = level * level
    if k > m:
        return LOG_ZERO
    i = np.arange(k, dtype=float)
    r = float(np.sum(np.log(m - i)) - np.sum(np.log(2 * m - i)))
    return _LOG_LEVEL_NORM - 2.0 * math.log(level) + r + (n * LN2 if with_likelihood else 0.0)


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
            lo, hi = first_two_head_terms(e)
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
    # fl(50 * 0.3) = 15, but 0.3 lies below 15/50 and so in cell 14
    "decimal cell boundary": lambda: [0.3, 0.305, 0.9],
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
        assert e.posterior_over_n().contains(mean_inv)
        pred = mp.exp(mp_step_log_sum(data, x=0.37) - s)
        assert step_predictive(e.step, 0.37).contains(pred)

    def test_predictive_on_a_decimal_cell_boundary(self):
        # 0.3 lies just below the level-5 boundary 15/50 and 0.305 above it,
        # so x = 0.3 falls in a cell no point occupies at level 5
        data = [0.305, 0.9]
        e = BarronEngine()
        e.add_points(data)
        pred = mp.exp(mp_step_log_sum(data, x=0.3) - mp_step_log_sum(data))
        assert step_predictive(e.step, 0.3).contains(pred)

    # x = 0 lies on the first cell boundary of every level; 1e-7 above 0.3
    # the predictive's levels run past the sample's distinct-cell level
    @pytest.mark.parametrize("x", [0.0, 0.3 + 1e-7])
    def test_predictive_at_an_edge_and_near_a_point(self, x):
        data = [0.05, 0.3, 0.305, 0.9]
        e = BarronEngine()
        e.add_points(data)
        pred = mp.exp(mp_step_log_sum(data, x=x) - mp_step_log_sum(data))
        assert step_predictive(e.step, x).contains(pred)

    def test_predictive_at_a_data_point_is_two(self):
        # every cell of a data point is occupied, so each level's factor is 2
        e = BarronEngine()
        e.add_points([0.05, 0.3, 0.305, 0.9])
        for x in (0.05, 0.3, 0.305, 0.9):
            assert step_predictive(e.step, x).contains(2.0), x

    def test_lattice_cut_is_half_the_distinct_points(self):
        e = BarronEngine()
        e.add_points(ORACLE_DATA["lattice K=200"]())
        assert e.step.distinct_level == 15
        assert e.occupancy.k_by_level.size == 100


def mp_log_head_term(level, k, n):
    """ln w_N 2^n (N^2)_k / (2N^2)_k from mpmath's loggamma at 50 digits."""
    with mp.workdps(50):
        m = level * level
        return (mp.log(6 / mp.pi**2) - 2 * mp.log(level) + n * mp.log(2)
                + mp.loggamma(m + 1) - mp.loggamma(m - k + 1)
                - mp.loggamma(2 * m + 1) + mp.loggamma(2 * m - k + 1))


def mp_log_ratio(m, k):
    """ln (m)_k / (2m)_k from mpmath's loggamma at 50 digits."""
    with mp.workdps(50):
        return (mp.loggamma(m + 1) - mp.loggamma(m - k + 1)
                - mp.loggamma(2 * m + 1) + mp.loggamma(2 * m - k + 1))


HEAD_ORACLE_DATA = {
    "uniform n=100": ORACLE_DATA["uniform n=100"],
    "uniform n=1000": lambda: [float(x) for x in RandomStream(1, 0).uniform_open(1000)],
    "lattice K=4096": lambda: [(i + 0.5) / 4096 for i in range(4096)],
}


def assert_ratios_inside_mpmath(m, k):
    """_log_ratio at the integer pairs (m, k): each bracket holds mpmath's
    value and is at most 8 ulps of k + 1 wide on each side."""
    r, err = barron._log_ratio(np.array(m, dtype=np.float64), np.array(k, dtype=np.float64))
    for mi, ki, ri, ei in zip(m, k, r.tolist(), err.tolist()):
        want = mp_log_ratio(mi, ki)
        assert ri - ei <= want <= ri + ei, (mi, ki)
        assert ei <= 8 * math.ulp(1.0) * (ki + 1), (mi, ki)


class TestClosedFormHead:
    """The head's closed form in Stirling pairs against mpmath's loggamma:
    every live level of three engine states, then the formula alone at
    (m, k) pairs an engine reaches only at n = 10^6, and at its edges."""

    @pytest.mark.parametrize("case", HEAD_ORACLE_DATA)
    def test_every_live_level_lies_inside_mpmath(self, case):
        # the uniform states cut at D = 69 and 2377, the lattice at K/2 = 2048
        data = HEAD_ORACLE_DATA[case]()
        e = BarronEngine()
        e.add_points(data)
        st = e.step
        levels = st.cut
        ks = recount_occupancy(data, levels).tolist()
        lo, hi = st.head
        live = 0
        for i, k in enumerate(ks):
            if k > (i + 1) ** 2:
                assert lo[i] == hi[i] == LOG_ZERO
                continue
            live += 1
            assert lo[i] <= mp_log_head_term(i + 1, k, e.n) <= hi[i], (case, i + 1)
        assert live >= levels - math.isqrt(len(data))
        finite = lo > LOG_ZERO
        assert (hi[finite] - lo[finite]).max() <= 2e-11

    def test_formula_at_the_million_scale(self):
        # m = N^2 up to 10^12 and k up to 10^6, the occupancies of the
        # seed-65 n = 10^6 state, without ingesting it
        pairs = [(n * n, k) for n in (1000, 2000, 31623, 10**5, 10**6)
                 for k in (2, 999, 10**4, 123457, 10**6) if k <= n * n]
        assert_ratios_inside_mpmath(*zip(*pairs))

    def test_edges(self):
        # k = 0 and 1, k = N^2, N^2 - k in 1..20, every k at N <= 4, and
        # the level 2^26 + 1 past the cell map's range, where b + 1/2 rounds
        pairs = [(n * n, k) for n in (1, 2, 5, 30, 1000, 10**6, 2**26 + 1) for k in (0, 1)]
        pairs += [((2**26 + 1) ** 2, k) for k in (5, 10**6)]
        pairs += [(n * n, n * n) for n in (1, 2, 3, 5, 20, 1000)]
        pairs += [(n * n, n * n - j) for n in (5, 10, 100, 10**4) for j in range(1, 21)
                  if j < n * n]
        pairs += [(n * n, k) for n in (1, 2, 3, 4) for k in range(n * n + 1)]
        assert_ratios_inside_mpmath(*zip(*pairs))
        r, err = barron._log_ratio(np.array([1.0, 1e12]), np.zeros(2))
        assert r.tolist() == [0.0, 0.0]

    def test_levels_past_the_occupancy_are_zero(self):
        # 12 points: level 1 holds 2 cells and level 2 holds 8, so the levels
        # 1 to 3 have k > N^2 and both ends of each are exactly ln 0
        data = [(i + 0.5) / 12 for i in range(12)]
        e = BarronEngine()
        e.add_points(data)
        ks = recount_occupancy(data, e.step.cut)
        lo, hi = e.step.head
        dead = ks > np.arange(1, ks.size + 1) ** 2
        assert dead[:3].all() and not dead[3:].any()
        assert (lo[dead] == LOG_ZERO).all() and (hi[dead] == LOG_ZERO).all()
        assert np.isfinite(lo[~dead]).all()

    def test_a_head_pass_peaks_near_a_mebibyte(self):
        # the seed-65 n = 8000 state cuts at 16599 levels; passes of 2^14
        # levels peaked at 3.3 MiB
        e = BarronEngine()
        e.add_points(_uniform_data(8000))
        st = e.step
        barron._level_table(st.cut)  # the process-wide table, grown once
        tracemalloc.start()
        try:
            barron._head(st.k_by_level, st.n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20

    @pytest.mark.parametrize("size", [777, 1 << 10, 1 << 14])
    def test_head_bits_do_not_depend_on_the_pass_size(self, monkeypatch, size):
        e = BarronEngine()
        e.add_points(_uniform_data(8000))
        st = e.step
        lo, hi = st.head
        monkeypatch.setattr(barron, "_HEAD_CHUNK", size)
        again = barron._head(st.k_by_level, st.n)
        assert lo.tobytes() == again[0].tobytes() and hi.tobytes() == again[1].tobytes()

    @pytest.mark.parametrize("n", [100, 1000, 8000])
    def test_step_marginal_stays_sharp(self, n):
        e = BarronEngine()
        e.add_points([float(x) for x in RandomStream(1, 0).uniform_open(n)])
        assert e.step_marginal().width() < 1e-10


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
        assert abs(e._s) < 1e-9
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
        data = GaussExpDensity(0.5).sample(RandomStream(21, 0), 300)
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


def prior_level_check(e):
    """The first 100 level weights and the weight past the cut are those of
    the prior, 6/(pi^2 N^2)."""
    w_lo, w_hi, tail_weight = level_weights(e)
    all_levels = np.arange(1, w_lo.size + 1)
    levels = all_levels[:100].astype(float)
    want = (6.0 / math.pi**2) / levels ** 2
    mid = 0.5 * (w_lo[:100] + w_hi[:100])
    assert np.allclose(mid, want, rtol=1e-10, atol=0.0)
    tail = 1.0 - float(6 / mp.pi**2 * mp.fsum(1 / mp.mpf(v) ** 2
                                              for v in all_levels.tolist()))
    assert tail_weight.lower - 1e-12 <= tail <= tail_weight.upper + 1e-12


class TestPosteriorOverLevels:
    def test_prior_weights_at_n0(self):
        e = BarronEngine()
        prior_level_check(e)
        w_lo, w_hi, _ = level_weights(e)
        assert np.allclose(w_lo, w_hi, rtol=1e-12)

    def test_single_point_keeps_prior_shape(self):
        # every level keeps ratio 1/2, so weights stay proportional to prior
        e = BarronEngine()
        e.add_point(0.77)
        prior_level_check(e)

    def test_uniform_data_pushes_to_fine_levels(self):
        prior_mean_inv = 6.0 / math.pi**2 * 1.2020569031595943  # zeta(3)
        e = BarronEngine(truth=UniformDensity())
        e.add_points(RandomStream(8, 0).uniform_open(1000))
        mean_inv = e.posterior_over_n()
        assert mean_inv.upper <= prior_mean_inv
        assert mean_inv.upper < 0.2  # far finer than the prior


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
            b = step_predictive(e.step, float(x))
            assert abs(b.midpoint() - 1.0) <= 1e-9
            assert b.width() <= 1e-9

    def test_occupied_cell_level_one(self):
        # 0.2 and 0.3 share cell 0 of the halves partition, so the one
        # level-1 member left selects it and gives the factor 2; from level
        # 2 on 0.3 falls in a cell 0.2 leaves empty, 2 (N^2-k)/(2N^2-k).
        # The mpmath sum takes each level's factor from the cells themselves
        e = BarronEngine()
        e.add_point(0.2)
        pred = mp.exp(mp_step_log_sum([0.2], x=0.3) - mp_step_log_sum([0.2]))
        b = step_predictive(e.step, 0.3)
        assert b.contains(pred)
        assert b.width() <= 1e-12

    def test_predictive_is_the_marginal_ratio(self):
        # the predictive at x is M(data + x) / M(data), M the step marginal
        # with likelihood, so the occupied flags at x must agree with the
        # occupancies that ingesting x yields (at a data point, off one by
        # 1e-6 and 3e-9, and midway between two points)
        data = [float(x) for x in RandomStream(11).uniform_open(300)]
        e = BarronEngine()
        e.add_points(data)
        base, srt = e.step_marginal(), sorted(data)
        for x in (data[0], data[1] + 1e-6, data[2] + 3e-9,
                  0.5 * (srt[10] + srt[11])):
            ext = BarronEngine()
            ext.add_points(data + [x])
            ratio = ext.step_marginal()
            lo = math.exp(ratio.lower - base.upper)
            hi = math.exp(ratio.upper - base.lower)
            pred = step_predictive(e.step, x)
            assert pred.lower <= hi and lo <= pred.upper, x
            assert hi - lo <= 1e-9 * hi and pred.width() <= 1e-9 * pred.upper, x

    def test_predictive_leaves_the_engine_unchanged(self):
        # the predictive merges x into the engine's step state, whose
        # sample, deficits and cached values the merged state must neither
        # write into nor replace: a value dropped, recomputed or written in
        # place shows here
        e = BarronEngine()
        e.add_points(_uniform_data(300))
        e.posterior_over_n()
        st = e.step
        pts, d, held = st.pts, st.deficits, dict(vars(st))
        assert {"cut", "head", "tail_series", "tail", "inv_level_tail",
                "step_sum"} <= held.keys()
        want_pts, want_d = pts.copy(), d.copy()
        for x in (0.0, 0.5, pts[7], pts[7] + 1e-9, 0.999):
            step_predictive(st, float(x))
        assert e.step is st and e.n == 300
        assert vars(st).keys() == held.keys()
        assert all(vars(st)[k] is v for k, v in held.items())
        assert np.array_equal(pts, want_pts) and np.array_equal(d, want_d)

    def test_predictive_integrates_to_one(self):
        e = BarronEngine()
        e.add_points([0.15, 0.5, 0.85])
        xs = (np.arange(512) + 0.5) / 512
        mids = [step_predictive(e.step, float(x)).midpoint() for x in xs]
        assert np.mean(mids) == pytest.approx(1.0, abs=5e-3)

    def test_one_ulp_off_a_point_raises_without_allocating(self):
        # one ulp off 0.3 the head would run to 1/sqrt(d), about 1.3e8
        # levels: x is refused, naming the point, before anything is sized
        e = BarronEngine()
        e.add_points([0.3, 0.9])
        e.step_marginal()
        for x, nb in ((math.nextafter(0.3, 1.0), "0.3"), (math.nextafter(0.9, 0.0), "0.9")):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=r"2\^-52") as info:
                    e.step.merged([x])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert repr(x) in str(info.value) and nb in str(info.value)
            assert peak < 16 * 2 ** 20
        assert step_predictive(e.step, 0.3).lower > 0.0


# -- the per-state cache against the per-level loop it replaced --------------

def _uniform_data(n):
    return [float(x) for x in RandomStream(65, 0).uniform_open(n)]


def _near_duplicates(n):
    # an exact duplicate and points 1e-7, 1e-8 and 1e-9 off data points
    data = _uniform_data(n)
    return data + [data[5], data[17] + 1e-7, data[40] - 1e-8, data[63] + 1e-9]


CACHE_DATA = {
    "uniform n=300": lambda: _uniform_data(300),
    "near duplicates n=300": lambda: _near_duplicates(300),
    "lattice K=512": lambda: [(i + 0.5) / 512 for i in range(512)],
    "uniform n=2000": lambda: _uniform_data(2000),
    "gauss:0.5 n=1500": lambda: [float(x) for x in GaussExpDensity(0.5).sample(
        RandomStream(7, 0), 1500)],
}


# rounding allowance of the test-local level loop, in nats
LOOP_ROUNDING = 1e-10


def recount_occupancy(data, levels):
    """The number of distinct cells of the sample at each level 1..levels:
    each level's cells of the sorted sample are non-decreasing, so they are
    1 plus the number of steps, counted over blocks of levels."""
    pts = np.sort(np.asarray(data, dtype=np.float64))
    out = np.empty(levels, dtype=np.int64)
    for start in range(0, levels, 4096):
        lv = np.arange(start + 1, min(start + 4096, levels) + 1, dtype=np.float64)
        cells = exact_cells(2.0 * lv[:, None] * lv[:, None], pts)
        out[start:start + lv.size] = 1 + (np.diff(cells, axis=1) != 0).sum(axis=1)
    return out


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
        assert not occ.k_by_level.flags.writeable  # the head reads the same array

    @pytest.mark.parametrize("case", CACHE_DATA)
    def test_step_brackets_equal_the_level_loop(self, cached_engines, case):
        # against the level loop the closed form replaced, cut at the old
        # M = max(D, 4n) with the old tail bracket: the step brackets, the
        # level weights and the mean of 1/N all lie inside the loop's.  The
        # loop carries no rounding term; LOOP_ROUNDING covers its sums of up
        # to n logs per level, which is all of its width where the tail
        # holds no mass (the tilt-truth case)
        e, data = cached_engines[case]
        m_old = max(e.step.distinct_level, 4 * e.n)
        for with_lik in (True, False):
            ref = loop_bracket(data, m_old, with_lik)
            got = e.step_marginal(with_likelihood=with_lik)
            assert ref.lower - LOOP_ROUNDING <= got.lower, with_lik
            assert got.upper <= ref.upper + LOOP_ROUNDING, with_lik
            assert got.width() <= 1e-9
        terms = loop_step_log_terms(recount_occupancy(data, m_old), e.n, True)
        tail = old_tail(e.n, e.occupancy.n_distinct, m_old)
        total = LogBracket.point(log_sum_exp(terms)).add(tail)
        w_lo, w_hi, mean_inv = loop_level_posterior(terms, tail, total)
        weights_lower, weights_upper, _ = level_weights(e)
        got = e.posterior_over_n()
        m, slack = weights_lower.size, math.exp(2 * LOOP_ROUNDING)
        assert np.all(w_lo[:m] <= weights_lower * slack)
        assert np.all(weights_upper <= w_hi[:m] * slack)
        assert mean_inv[0] <= got.lower * slack
        assert got.upper <= mean_inv[1] * slack

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
        a, b = level_weights(fed), level_weights(fresh)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert fed.posterior_over_n() == fresh.posterior_over_n()

    def test_one_full_tilt_integral_per_state(self, monkeypatch):
        full = []

        def counting(f, a, b, *args, **kwargs):
            if (a, b) == (0.0, 1.0):
                full.append(1)
            return adaptive_quadrature(f, a, b, *args, **kwargs)

        barron._prior.cache_clear()
        monkeypatch.setattr(barron, "adaptive_quadrature", counting)
        data = _uniform_data(300)
        e = BarronEngine(truth=UniformDensity())
        e.add_points(data[:-1])
        for _ in range(2):
            evaluate_diagnostics(e, barron_statistics(DiagnosticSettings()))
            e.gauss_marginal()
        assert len(full) == 2  # Z0 and this state's normalizer
        e.add_point(data[-1])
        evaluate_diagnostics(e, barron_statistics(DiagnosticSettings()))
        BarronEngine().posterior_theta().prior_ball_mass(0.3)
        assert len(full) == 3  # the new state's normalizer; Z0 is reused

    def test_raised_distinct_level_keeps_every_occupancy(self):
        # near-duplicates lift the distinct-cell level far past 4n (to
        # 316228 at the gap 1e-11), an exact duplicate leaves it alone; every
        # level up to the cut must hold the recount, and the step brackets
        # those of a fresh engine
        data = _uniform_data(60)
        data += [data[17] + 1e-7, data[5]] + _uniform_data(80)[60:]
        data += [data[30] - 1e-10, data[44] + 1e-11, data[44]]
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
        assert e.step.distinct_level == 316228
        assert e.occupancy.n_distinct == e.n - 2


class TestTailSeries:
    def test_step_and_level_tails_build_one_series(self, monkeypatch):
        built = []
        series = StepState.tail_series

        def counting(state):
            built.append(state)
            return series.func(state)

        counted = functools.cached_property(counting)
        counted.__set_name__(StepState, "tail_series")
        monkeypatch.setattr(StepState, "tail_series", counted)
        e = BarronEngine()
        e.add_points(_uniform_data(300))
        e.step_marginal()
        e.posterior_over_n()
        e.posterior_over_n()
        st = e.step
        assert built == [st]
        for s0, tail in ((2, st.tail), (3, st.inv_level_tail)):
            # each as a fresh state computes it alone
            fresh = BarronEngine()
            fresh.add_points(_uniform_data(300))
            assert tail == fresh.step._tail(s0)
        assert len(built) == 3
        e.add_point(0.123)
        assert "tail_series" not in vars(e.step)
        e.posterior_over_n()
        assert len(built) == 4 and built[-1] is e.step


class TestSeparatingLevels:
    def test_first_level_past_half_the_gap_from_the_isqrt_start(self):
        # 1/r^2 and its neighbouring floats, where the float test moves the
        # isqrt start, random gaps, and the smallest gap add_points accepts
        rng = np.random.default_rng(11)
        r = np.r_[np.arange(1, 3000), rng.integers(3000, 2**26, 3000)].astype(np.float64)
        base = 1.0 / (r * r)
        gaps = np.r_[base, np.nextafter(base, 1.0), np.nextafter(base, 0.0),
                     rng.random(3000), 2.0 ** -rng.uniform(0, 52, 3000),
                     np.nextafter(2.0 ** -52, 1.0)]
        assert (1.0 / gaps < barron._EXACT_INV).all()
        for gap in gaps.tolist():
            s, start = barron._separating_level(gap), math.isqrt(int(1.0 / gap)) + 1
            assert s >= start and 1.0 / (2.0 * s * s) < 0.5 * gap
            assert s == start or 1.0 / (2.0 * (s - 1) * (s - 1)) >= 0.5 * gap

    def test_start_can_sit_one_above_the_smallest_level(self):
        # S keeps the isqrt start: one ulp above fl(1/9) level 3 already
        # parts the cells
        gap = np.nextafter(1.0 / 9.0, 1.0)
        assert gap == 0.11111111111111112
        assert 1.0 / (2.0 * 3 * 3) < 0.5 * gap
        assert barron._separating_level(gap) == 4


class TestComparedLevels:
    def test_no_cell_is_shared_past_the_count(self):
        # a = k/(2 N^2), k = 1..3, moved an ulp up or down, and b = a + g for
        # g = 1/(2 N^2) and the two floats either side of it: near 0, b - a
        # is exact or rounds toward b, and 2 N^2 (b - a) lies within a few
        # ulps of 1.  The rest are random pairs 1e-6 to 1e-1 apart.
        rng = np.random.default_rng(20)
        level = rng.integers(1, 3000, 600).astype(np.float64)
        w = 2.0 * level * level
        a0 = np.nextafter(rng.integers(1, 4, 600) / w,
                          rng.choice([-np.inf, np.inf], 600))
        g = [1.0 / w]
        for to in (-np.inf, np.inf):
            g += [np.nextafter(g[0], to), np.nextafter(np.nextafter(g[0], to), to)]
        ar = rng.random(400) * 0.9
        a = np.r_[np.tile(a0, len(g)), ar]
        b = np.r_[np.concatenate([a0 + gi for gi in g]), ar + 10.0 ** rng.uniform(-6, -1, 400)]
        # the limit D - 1 that a near-duplicate pair 1e-12 apart sets
        limit = barron._separating_level(1e-12) - 1
        count = barron._compared_levels(b - a, limit)
        sep = np.array([barron._separating_level(gap) for gap in (b - a).tolist()])
        assert (count >= 1).all() and (count <= limit).all()
        # the last level, up to S(gap) + 2, on which the exact cells share
        last = np.zeros(a.size, dtype=np.int64)
        for i in range(a.size):
            lv = np.arange(1, sep[i] + 3, dtype=np.float64)
            shared = exact_cells(2.0 * lv * lv, a[i]) == exact_cells(2.0 * lv * lv, b[i])
            last[i] = lv[shared][-1] if shared.any() else 0
        assert (last <= count).all()
        # no pair shares a cell from S(gap) on, so past S(gap) - 1 the
        # compares add nothing
        assert (last < sep).all()
        # the boundary pairs that share their level N are compared on N + 1
        # levels at most
        at_n = last[:-400] == np.tile(level, len(g))
        assert at_n.sum() >= 100
        assert (count[:-400][at_n] <= last[:-400][at_n] + 1).all()

@st.composite
def blocked_samples(draw):
    """A sample with exact duplicates, near-duplicates 1e-9 to 1e-12 off a
    point and cell boundaries k/(2 N^2), in random order, and the sorted
    cut positions that split it into blocks."""
    data = draw(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=30))
    level = draw(st.integers(1, 40))
    data += [k / (2 * level * level) for k in
             draw(st.lists(st.integers(1, 2 * level * level - 1), max_size=5))]
    pick = st.integers(0, len(data) - 1)
    data += [data[i] for i in draw(st.lists(pick, max_size=3))]
    data += [data[i] + sign * gap for i, gap, sign in draw(st.lists(st.tuples(
        pick, st.sampled_from([1e-9, 1e-10, 1e-11, 1e-12]), st.sampled_from([-1, 1])),
        max_size=1))]
    data = draw(st.permutations(data))
    return data, sorted(draw(st.lists(st.integers(0, len(data)), max_size=6)))


STEP_TRUTH = StepDensity(2, frozenset({0, 3, 5, 7}))


def unresolvable(xs) -> bool:
    """Whether two distinct points of xs lie closer than 2^-52, past the
    resolution of the cell map."""
    return bool((1.0 / np.diff(np.unique(xs)) >= 2.0 ** 52).any())


class TestBlockIngestion:
    @given(blocked_samples())
    @example(([0.001, 0.0010000000000000002], [1]))
    # wide gaps, compared past S(gap) - 1 under the D of a 1e-12 pair, made
    # by one block and split by the next
    @example(([0.2, 0.5, 0.5 + 1e-12, 0.35, 0.9, 0.62], [3, 4]))
    @settings(max_examples=25, deadline=None)
    def test_blocks_equal_one_block_and_the_recount(self, sample):
        data, cuts = sample
        truth = GaussExpDensity(0.5)
        blocks, whole = BarronEngine(truth=truth), BarronEngine(truth=truth)
        for lo, hi in zip([0] + cuts, cuts + [len(data)]):
            if unresolvable(data[:hi]):
                # the block that makes the pair and the whole sample raise
                with pytest.raises(ValueError, match=r"2\^-52"):
                    blocks.add_points(data[lo:hi])
                with pytest.raises(ValueError, match=r"2\^-52"):
                    whole.add_points(data)
                assert (blocks.n, whole.n) == (lo, 0)
                return
            blocks.add_points(data[lo:hi])
        whole.add_points(data)
        occ = blocks.occupancy
        assert np.array_equal(occ.k_by_level, whole.occupancy.k_by_level)
        assert np.array_equal(occ.k_by_level, recount_occupancy(data, occ.k_by_level.size))
        distinct = np.unique(data)
        assert blocks.occupancy.n_distinct == whole.occupancy.n_distinct == distinct.size
        assert blocks.step.min_gap == np.diff(distinct).min(initial=math.inf)
        s_n, log_truth = 0.0, 0.0
        for x in data:  # the sequential folds, in data order
            s_n += inv_norm_cdf_point(x)
            log_truth += truth.logpdf(x)
        assert blocks._s == s_n
        assert blocks.mean_log_truth == log_truth / len(data)
        assert blocks.step_marginal() == whole.step_marginal()

    @pytest.mark.parametrize("truth, draw, point_logpdf", [
        (UniformDensity(), lambda rs, n: rs.uniform_open(n), lambda x: 0.0),
        (GaussExpDensity(0.5), lambda rs, n: GaussExpDensity(0.5).sample(rs, n),
         lambda x: -0.5 + math.sqrt(2.0 * 0.5) * inv_norm_cdf_point(x)),
        (STEP_TRUTH, lambda rs, n: np.r_[STEP_TRUTH.sample(rs, n - 40),
                                        rs.uniform_open(40)],
         lambda x: LN2 if int(exact_cells(8, x)) in STEP_TRUTH.selected else LOG_ZERO),
    ], ids=["uniform", "gauss:0.5", "step:2:0,3,5,7"])
    def test_block_folds_equal_the_point_folds(self, truth, draw, point_logpdf):
        # the step sample ends with 40 uniform points, some off the selected
        # cells, so its log-likelihood folds to LOG_ZERO from there on
        data = draw(RandomStream(4, 0), 3000).tolist()
        e = BarronEngine(truth=truth)
        s_n, log_truth, cuts = 0.0, 0.0, [0, 1, 2, 5, 40, 700, 2961, 2990, 3000]
        for lo, hi in zip(cuts, cuts[1:]):
            e.add_points(data[lo:hi])
            for x in data[lo:hi]:
                s_n += inv_norm_cdf_point(x)
                log_truth += point_logpdf(x)
            assert e._s == s_n and e._sum_log_truth == log_truth
        assert type(e._sum_log_truth) is float and type(e._s) is float
        if truth is STEP_TRUTH:
            assert log_truth == LOG_ZERO

    @pytest.mark.parametrize("block", [[0.2, 0.4, 1.5], [0.5, math.nan],
                                       [math.inf], [0.6, 0.0],
                                       [0.001, 0.0010000000000000002],
                                       [0.5, math.nextafter(0.3, 1.0)]])
    def test_rejected_block_changes_nothing(self, block):
        e = BarronEngine(truth=GaussExpDensity(0.5))
        e.add_points([0.1, 0.3, 0.7])
        def stats():
            st = e.step
            return e.n, e._s, st.min_gap, st.n_distinct, st.pts.copy()

        before, occ, marginal = stats(), e.occupancy, e.step_marginal()
        log_truth = e.mean_log_truth
        with pytest.raises(ValueError):
            e.add_points(block)
        after = stats()
        assert after[:4] == before[:4]
        assert np.array_equal(after[4], before[4])
        assert e.mean_log_truth == log_truth
        assert np.array_equal(e.occupancy.k_by_level, occ.k_by_level)
        assert e.step_marginal() == marginal

    def test_near_duplicate_ingestion_memory_is_bounded(self):
        # the pair 1e-12 apart is compared on its 1000011 levels in chunks,
        # so beyond the deficits ingestion holds O(chunk) memory
        barron._level_table(1_000_012)
        e = BarronEngine()
        tracemalloc.start()
        try:
            e.add_points([0.3, 0.3 + 1e-12, 0.7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e.step.distinct_level == 1_000_012
        assert peak <= e.step.deficits.nbytes + 8 * 2 ** 20
