"""Density-family tests.  The closed-form Hellinger affinity for the tilt
family is treated as unproven until the independent quadrature oracle
confirms it (TestClosedFormsVsQuadrature); samplers are checked by
goodness-of-fit against their own CDFs."""

import math

import numpy as np
import pytest
import scipy.stats
from oracles import (
    CosineDensity,
    estimate,
    gauss_exp_cdf,
    hellinger_gauss_exp,
    hellinger_numeric,
    hellinger_step_uniform,
    kl_gauss_exp,
    kl_numeric,
    on_nodes,
    quad_breakpoints,
)
from posterior_lab.densities import (
    GaussExpDensity,
    HELLINGER_STEP_UNIFORM,
    StepDensity,
    UniformDensity,
    cell_floor,
    sample_gauss_exp,
    sample_step,
)
from posterior_lab.numerics import LOG_ZERO, RandomStream, adaptive_quadrature, inv_norm_cdf

THETA_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


class TestGaussExp:
    def test_uniform_member(self):
        f0 = GaussExpDensity(0.0)
        for x in (0.1, 0.5, 0.77):
            assert f0.logpdf(x) == 0.0

    def test_logpdf_points(self):
        f = GaussExpDensity(0.5)
        assert f.logpdf(0.5) == pytest.approx(-0.5, abs=1e-12)
        assert math.exp(f.logpdf(0.5)) == pytest.approx(0.6065306597126334, abs=1e-12)
        # PhiInv(0.841344746...) = 1, so logpdf = -0.5 + 1 = 0.5
        assert f.logpdf(0.8413447460685429) == pytest.approx(0.5, abs=1e-8)
        assert math.exp(f.logpdf(0.8413447460685429)) == pytest.approx(1.6487212707,
                                                                       abs=1e-8)

    def test_rejects_endpoints(self):
        f = GaussExpDensity(0.3)
        for x in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                f.logpdf(x)

    def test_invalid_theta(self):
        for t in (-0.01, 1.01):
            with pytest.raises(ValueError):
                GaussExpDensity(t)

    def test_normalization_grid(self):
        for theta in THETA_GRID:
            d = GaussExpDensity(theta)
            res = adaptive_quadrature(
                on_nodes(lambda x: np.array([d.logpdf(v) for v in x.tolist()])),
                0.0, 1.0, 1e-9)
            assert estimate(res) == pytest.approx(1.0, abs=1e-8), theta


@pytest.mark.parametrize("d", [UniformDensity(), GaussExpDensity(0.5),
                               StepDensity(2, frozenset({0, 3, 5, 7}))],
                         ids=["uniform", "gauss:0.5", "step:2:0,3,5,7"])
class TestArrayLogpdf:
    def test_array_equals_the_numbers(self, d):
        # cell boundaries k/8 of level 2, including the selected cells' ends
        x = np.r_[np.arange(1, 8) / 8.0, RandomStream(3, 0).uniform_open(500)]
        got = d.logpdf(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert got.tobytes() == np.array([d.logpdf(v) for v in x.tolist()]).tobytes()
        assert d.logpdf(x.reshape(-1, 3)).tobytes() == got.tobytes()

    @pytest.mark.parametrize("bad", [1.0, -0.2, math.nan])
    def test_array_with_a_point_outside_raises(self, d, bad):
        with pytest.raises(ValueError, match="x must lie in"):
            d.logpdf(np.array([0.25, bad, 0.5]))


class TestPartitionAndSteps:
    def test_cell_index_examples(self):
        # the cell of x at level N is floor(2 N^2 x)
        assert cell_floor(8, 0.3) == 2
        assert cell_floor(98, 0.0) == 0
        assert cell_floor(2, 0.999) == 1

    def test_cell_floor_is_the_integer_floor_next_to_boundaries(self):
        # one ulp either side of j/(2 N^2), N up to 8e5, where fl(2 N^2 x)
        # can round onto the boundary, and boundaries that are floats (N a
        # power of two); the oracle is floor(2 N^2 p / q) in Python
        # integers, p/q the float x
        rng = np.random.default_rng(18)
        levels = rng.integers(1, 800_000, 5_000)
        w = 2 * levels * levels
        j = rng.integers(1, w)
        edge = j / w
        dyadic = 2 * 4 ** rng.integers(0, 19, 1_000)
        x = np.r_[np.nextafter(edge, 0.0), np.nextafter(edge, 1.0), edge,
                  rng.random(5_000), rng.integers(1, dyadic) / dyadic]
        w = np.r_[w, w, w, w, dyadic]
        want = [wi * p // q for wi, (p, q) in
                zip(w.tolist(), map(float.as_integer_ratio, x.tolist()))]
        assert cell_floor(w, x).tolist() == want
        assert ((w * x).astype(np.int64) != want).any()  # the plain float map misses

    def test_cell_floor_broadcasts(self):
        w = 2.0 * np.arange(1, 6) ** 2
        assert cell_floor(w, 0.3).tolist() == [0, 2, 5, 9, 14]
        assert cell_floor(50, np.array([0.0, 0.3, 0.305])).tolist() == [0, 14, 15]
        assert cell_floor(50, 0.3) == 14

    def test_decimal_point_below_a_cell_boundary(self):
        # fl(50 * 0.3) = 15, but the float 0.3 lies below 3/10
        assert cell_floor(50, 0.3) == 14
        below = StepDensity(5, frozenset(range(14, 39)))
        above = StepDensity(5, frozenset(range(15, 40)))
        assert below.logpdf(0.3) == math.log(2.0) and math.exp(below.logpdf(0.3)) == 2.0
        assert above.logpdf(0.3) == LOG_ZERO and math.exp(above.logpdf(0.3)) == 0.0

    def test_partition_geometry(self):
        s = StepDensity(3, frozenset(range(9)))
        assert s.n_cells == 18
        assert 1.0 / s.n_cells == pytest.approx(1.0 / 18.0)
        assert len(quad_breakpoints(s)) == 17

    def test_step_pdf(self):
        s = StepDensity(1, frozenset({0}))
        assert math.exp(s.logpdf(0.2)) == 2.0
        assert math.exp(s.logpdf(0.7)) == 0.0
        assert s.logpdf(0.7) == LOG_ZERO

    def test_step_mass_is_exact(self):
        for level, sel in ((1, {0}), (2, {1, 3, 4, 6}), (3, set(range(9)))):
            s = StepDensity(level, frozenset(sel))
            w = 1.0 / s.n_cells
            assert 2.0 * len(sel) * w == pytest.approx(1.0, abs=1e-15)

    def test_step_max_value_is_two(self):
        s = StepDensity(2, frozenset({0, 2, 5, 7}))
        xs = np.linspace(0, 0.999999, 2001)
        assert max(math.exp(s.logpdf(float(x))) for x in xs) == 2.0

    def test_step_validation(self):
        with pytest.raises(ValueError):
            StepDensity(2, frozenset({0, 1}))          # wrong count
        with pytest.raises(ValueError):
            StepDensity(1, frozenset({0, 5}))          # out of range


class TestCosine:
    def test_uniform_limit(self):
        d = CosineDensity(0.0)
        assert d.normalizer() == 2.0
        assert d.logpdf(0.37) == 0.0

    def test_pdf_zero_at_cos_minus_one(self):
        # at theta = pi the float pdf at x = 1 is ~cos(pi/2)^2 ~ 4e-33
        assert CosineDensity(math.pi).logpdf(1.0) < -70.0
        assert CosineDensity(2 * math.pi).logpdf(0.5) < -70.0
        assert CosineDensity(math.pi).normalizer() == pytest.approx(1.0, abs=1e-15)

    def test_value_oracle(self):
        # mpmath: ln(1+cos 0.5) - ln(1+sin 1) = 0.019420377567503...
        assert CosineDensity(1.0).logpdf(0.5) == pytest.approx(
            0.019420377567503, abs=1e-12)

    def test_small_theta_series(self):
        d = CosineDensity(1e-8)
        assert d.normalizer() == pytest.approx(2.0, abs=1e-15)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            CosineDensity(-0.5)

    def test_normalization(self):
        for theta in (0.0, 1.0, math.pi, 10.0, 50.0):
            d = CosineDensity(theta)
            res = adaptive_quadrature(
                on_nodes(lambda x: np.array([d.logpdf(v) for v in x.tolist()])),
                0.0, 1.0, 1e-9, breakpoints=quad_breakpoints(d))
            assert estimate(res) == pytest.approx(1.0, abs=1e-8), theta

    def test_sup_ratio_bound(self):
        # max_x pdf = 2/c(theta) = 2 theta/(theta+sin theta): a finite
        # uniform likelihood-ratio bound over the tested theta grid
        xs = np.linspace(0.0, 1.0, 10_001)
        for theta in np.linspace(0.5, 100.0, 40):
            d = CosineDensity(theta)
            mx = max(math.exp(d.logpdf(float(x))) for x in xs)
            bound = 2.0 * theta / (theta + math.sin(theta))
            assert mx <= bound * (1 + 1e-12)


class TestKLClosedForm:
    def test_identical(self):
        assert kl_gauss_exp(0.5, 0.5) == 0.0

    def test_from_uniform_is_theta(self):
        assert kl_gauss_exp(0.0, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_quarter_one(self):
        assert kl_gauss_exp(0.25, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_nonnegative_and_identity_of_indiscernibles(self):
        for t1 in THETA_GRID:
            for t2 in THETA_GRID:
                v = kl_gauss_exp(t1, t2)
                assert v >= 0.0
                assert (v == 0.0) == (t1 == t2)

    def test_matches_quadrature(self):
        # KL(f1,f2) = integral f1 ln(f1/f2) computed in PhiInv coordinates
        for t1 in (0.0, 0.2, 0.7, 1.0):
            for t2 in (0.1, 0.5, 1.0):
                f1, f2 = GaussExpDensity(t1), GaussExpDensity(t2)
                assert kl_numeric(f1, f2) == pytest.approx(kl_gauss_exp(t1, t2), abs=1e-6)


class TestClosedFormsVsQuadrature:
    """Mandatory verification: the closed-form affinities are only trusted
    because these oracles confirm them."""

    def test_hellinger_tilt_grid(self):
        for t1 in THETA_GRID:
            for t2 in THETA_GRID:
                closed = hellinger_gauss_exp(t1, t2)
                numeric = hellinger_numeric(GaussExpDensity(t1),
                                            GaussExpDensity(t2), 1e-9)
                assert closed == pytest.approx(numeric, abs=1e-6), (t1, t2)

    def test_known_values(self):
        assert hellinger_gauss_exp(0.0, 1.0) == pytest.approx(
            0.665130388613534, abs=1e-9)
        assert hellinger_gauss_exp(0.25, 1.0) == pytest.approx(
            0.348100379737007, abs=1e-9)

    def test_step_uniform_constant(self):
        u = UniformDensity()
        for level, sel in ((1, {0}), (1, {1}), (3, set(range(9))),
                           (3, set(range(3, 12))), (2, {0, 3, 5, 6})):
            s = StepDensity(level, frozenset(sel))
            assert hellinger_step_uniform(s) == pytest.approx(
                0.765366864730180, abs=1e-9)
            assert hellinger_numeric(u, s, 1e-9) == pytest.approx(
                HELLINGER_STEP_UNIFORM, abs=1e-6)

    def test_disjoint_steps(self):
        a = StepDensity(1, frozenset({0}))
        b = StepDensity(1, frozenset({1}))
        assert hellinger_numeric(a, b) == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_self_distance_zero(self):
        f0 = GaussExpDensity(0.0)
        assert hellinger_numeric(f0, f0) == pytest.approx(0.0, abs=1e-6)

    def test_symmetry_range_triangle(self):
        rng = np.random.default_rng(7)
        thetas = rng.uniform(0.0, 1.0, (100, 3))
        for t1, t2, t3 in thetas:
            d12 = hellinger_gauss_exp(t1, t2)
            d21 = hellinger_gauss_exp(t2, t1)
            assert d12 == d21
            assert 0.0 <= d12 <= math.sqrt(2.0)
            assert d12 <= hellinger_gauss_exp(t1, t3) + \
                hellinger_gauss_exp(t3, t2) + 1e-12


class TestSamplers:
    def test_gauss_exp_reduces_to_uniform(self):
        rs = RandomStream(5, 0)
        xs = sample_gauss_exp(GaussExpDensity(0.0), rs, 1000)
        us = rs.uniform_open(1000)
        assert np.allclose(xs, us, atol=1e-12)

    def test_gauss_exp_mean_identity(self):
        n = 100_000
        xs = sample_gauss_exp(GaussExpDensity(0.5), RandomStream(3, 0), n)
        zbar = np.mean([inv_norm_cdf(float(x)) for x in xs])
        assert abs(zbar - 1.0) <= 3.0 / math.sqrt(n)

    def test_gauss_exp_determinism(self):
        rs = RandomStream(11, 2)
        a = sample_gauss_exp(GaussExpDensity(0.4), rs, 500)
        b = sample_gauss_exp(GaussExpDensity(0.4), rs, 500)
        assert np.array_equal(a, b)

    def test_gauss_exp_gof(self):
        # chi-square against the closed-form CDF Phi(PhiInv(x) - sqrt(2 t))
        d = GaussExpDensity(0.7)
        xs = sample_gauss_exp(d, RandomStream(13, 0), 50_000)
        edges = np.linspace(0.0, 1.0, 41)
        counts, _ = np.histogram(xs, bins=edges)
        cdf = np.array([0.0] + [gauss_exp_cdf(d, float(e)) for e in edges[1:-1]] + [1.0])
        expected = np.diff(cdf) * xs.size
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert scipy.stats.chi2.sf(stat, len(counts) - 1) > 0.001

    def test_step_sampler_support_and_uniformity(self):
        s = StepDensity(1, frozenset({0}))
        xs = sample_step(s, RandomStream(4, 0), 100_000)
        assert xs.min() >= 0.0 and xs.max() < 0.5

        s2 = StepDensity(3, frozenset(range(0, 18, 2)))
        xs2 = sample_step(s2, RandomStream(6, 0), 100_000)
        cells = cell_floor(18, xs2).astype(int)
        assert set(np.unique(cells)) == set(range(0, 18, 2))
        counts = np.bincount(cells, minlength=18)[list(range(0, 18, 2))]
        expected = xs2.size / 9.0
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert scipy.stats.chi2.sf(stat, 8) > 0.001

    @pytest.mark.parametrize("level", [5, 7, 11])
    def test_step_draws_lie_in_selected_cells(self, level):
        # 2 N^2 is no power of two, so the cell width 1/(2 N^2) is inexact
        rng = np.random.default_rng(level)
        sel = rng.choice(2 * level * level, level * level, replace=False)
        s = StepDensity(level, frozenset(sel.tolist()))
        xs = sample_step(s, RandomStream(level, 0), 50_000)
        assert set(cell_floor(2 * level * level, xs).tolist()) <= s.selected

    def test_step_empty(self):
        s = StepDensity(1, frozenset({0}))
        assert sample_step(s, RandomStream(1, 0), 0).size == 0
