"""Cosine-model tests: the closed-form distance curve is verified against
the generic numeric integrator before the engine relies on it; posterior
masses are checked against trapezoid oracles, for additivity and for the
sharpness of their tail brackets."""

import math

import mpmath as mp
import numpy as np
import pytest
from posterior_lab import cosine, numerics
from posterior_lab.cosine import (
    CosineEngine,
    CosinePriorConfig,
    cosine_hellinger_uniform,
    cosine_loglik,
)
from posterior_lab.densities import CosineDensity, UniformDensity, hellinger_numeric
from posterior_lab.numerics import LOG_ZERO, RandomStream, log_add

mp.mp.dps = 30


class TestPriorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CosinePriorConfig(kind="nope")
        with pytest.raises(ValueError):
            CosinePriorConfig(kind="exponential", rate=-1.0)
        with pytest.raises(ValueError):
            CosinePriorConfig(kind="truncated_uniform", theta_max=0.0)
        with pytest.raises(ValueError, match="half_cauchy"):  # retired
            CosinePriorConfig(kind="half_cauchy")

    @pytest.mark.parametrize("kind, field", [("exponential", "rate"),
                                             ("truncated_uniform", "theta_max")])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_nonfinite_parameter_rejected(self, kind, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            CosinePriorConfig(kind=kind, **{field: value})

    def test_densities_normalize(self):
        # trapezoid head plus the closed-form tail must recover total mass 1
        # (this also cross-checks the tail formula against the density)
        for cfg in (CosinePriorConfig("exponential", rate=1.3),
                    CosinePriorConfig("exponential", rate=0.05),
                    CosinePriorConfig("truncated_uniform", theta_max=7.0)):
            ts = np.linspace(0.0, 400.0, 400_001)
            dens = np.exp(cfg.log_density(ts))
            head = float(np.trapezoid(dens, ts))
            tail = math.exp(cfg.log_tail_mass(400.0))
            assert head + tail == pytest.approx(1.0, abs=1e-3), cfg.kind

    def test_tail_closed_forms(self):
        exp_cfg = CosinePriorConfig("exponential", rate=2.0)
        assert exp_cfg.log_tail_mass(3.0) == pytest.approx(-6.0, abs=1e-12)
        assert exp_cfg.log_tail_mass(0.0) == 0.0
        tu = CosinePriorConfig("truncated_uniform", theta_max=10.0)
        assert tu.log_tail_mass(4.0) == pytest.approx(math.log(0.6), abs=1e-12)
        assert tu.log_tail_mass(10.0) == LOG_ZERO


class TestCosineLoglik:
    def test_uniform_member(self):
        assert cosine_loglik(0.0, [0.1, 0.5, 0.9]) == 0.0

    def test_single_point_oracle(self):
        # mpmath: ln(1+cos .5) - ln(1+sin 1) = 0.0194203775675032
        assert cosine_loglik(1.0, [0.5]) == pytest.approx(
            0.0194203775675032, abs=1e-12)

    def test_pdf_zero_under_float_pi(self):
        # theta = float pi, x = 1: the pdf is ~4e-33 (exact zero only at
        # real pi, which is not representable)
        assert cosine_loglik(math.pi, [1.0, 0.5]) < -60.0

    def test_negative_theta(self):
        with pytest.raises(ValueError):
            cosine_loglik(-1.0, [0.5])

    def test_batch_matches_a_per_theta_loop(self):
        # the reference sums each theta on its own with math's functions;
        # the batch's normalizer takes np.log, so the last bits may differ
        data = RandomStream(4, 0).uniform_open(3000)  # 10 thetas per chunk
        thetas = [0.0, 1e-7, 0.5, 3.0, 41.7, *np.linspace(0.1, 900.0, 37).tolist()]
        got = cosine_loglik(np.array(thetas), data)
        for t, v in zip(thetas, got.tolist()):
            want = data.size * (math.log(2.0) - CosineDensity(t).log_normalizer()) \
                + sum(2.0 * math.log(abs(math.cos(0.5 * t * x))) for x in data.tolist())
            assert v == pytest.approx(want, rel=1e-13, abs=1e-12), t


class TestClosedFormDistance:
    def test_against_numeric_integrator(self):
        u = UniformDensity()
        for theta in (0.25, 0.5, 1.0, 2.0, 3.0, 4.49, 7.0, 11.0, 20.0, 33.3,
                      60.0):
            closed = cosine_hellinger_uniform(theta)
            numeric = hellinger_numeric(CosineDensity(theta), u, 1e-9)
            assert closed == pytest.approx(numeric, abs=1e-6), theta

    def test_zero_at_uniform(self):
        assert cosine_hellinger_uniform(0.0) == 0.0

    def test_monotone_start_then_plateau(self):
        small = cosine_hellinger_uniform(0.5)
        mid = cosine_hellinger_uniform(2.5)
        far = cosine_hellinger_uniform(200.0)
        assert small < mid
        # the large-theta plateau: sqrt(2 - 2 * 2 sqrt(2)/pi) ~ 0.4440
        plateau = math.sqrt(2.0 - 4.0 * math.sqrt(2.0) / math.pi)
        assert far == pytest.approx(plateau, abs=0.01)


class TestPosteriorMasses:
    def test_prior_tail_at_n0(self):
        prior = CosinePriorConfig("exponential", rate=1.0)
        m = CosineEngine(prior, []).region_mass(2.0, math.inf)
        assert m.lower <= math.exp(-2.0) <= m.upper
        assert m.midpoint() == pytest.approx(math.exp(-2.0), abs=1e-3)

    def test_whole_space_is_one(self):
        prior = CosinePriorConfig("exponential", rate=1.0)
        m = CosineEngine(prior, RandomStream(4, 0).uniform_open(20)).region_mass(
            0.0, math.inf)
        assert m.lower == 1.0 and m.upper == 1.0

    def test_additive_over_disjoint_regions(self):
        prior = CosinePriorConfig("exponential", rate=1.0)
        eng = CosineEngine(prior, RandomStream(5, 0).uniform_open(15))
        cuts = (0.0, 1.0, 3.0, 8.0, math.inf)
        parts = [eng.region_mass(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
        lo = sum(p.lower for p in parts)
        hi = sum(p.upper for p in parts)
        assert lo <= 1.0 + 1e-9
        assert hi >= 1.0 - 1e-9

    def test_single_point_against_trapezoid_oracle(self):
        # posterior density on [0, 20] for one observation, normalized on
        # that window, against a dense trapezoid rule
        prior = CosinePriorConfig("exponential", rate=1.0)
        x = 0.37
        eng = CosineEngine(prior, [x])
        ts = np.linspace(0.0, 20.0, 2_000_001)
        c = np.where(ts < 1e-6, 2.0, 1.0 + np.sin(ts) / np.where(ts == 0, 1, ts))
        dens = np.exp(-ts) * (1.0 + np.cos(ts * x)) / c
        cum = np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(ts))
        for hi in (1.0, 4.0, 9.5, 17.0):
            i = int(hi / 20.0 * (ts.size - 1))
            want = cum[i - 1] / cum[-1]
            got = eng.region_mass(0.0, hi)
            # compare within the engine's own [0,20]-restricted normalization
            whole = eng.region_mass(0.0, 20.0)
            ratio = got.midpoint() / whole.midpoint()
            assert ratio == pytest.approx(want, abs=1e-6), hi

    def test_tail_region_shrinks_with_n(self):
        prior = CosinePriorConfig("exponential", rate=1.0)
        data = RandomStream(5, 0).uniform_open(1000)
        small = CosineEngine(prior, data[:10]).region_mass(5.0)
        large = CosineEngine(prior, data).region_mass(5.0)
        assert large.upper < small.lower

    def test_invalid_region(self):
        eng = CosineEngine(CosinePriorConfig(), [0.5])
        with pytest.raises(ValueError):
            eng.region_mass(-1.0, 2.0)
        with pytest.raises(ValueError):
            eng.region_mass(3.0, 2.0)


def _uniform_data(n, seed=1):
    # the data of `traj --seed SEED` under the default uniform truth
    return RandomStream(seed, 0).uniform_open(n)


def _trapezoid_log(data, lo, hi, points):
    """ln of the trapezoid rule for the joint density under the exponential
    prior (rate 1) on [lo, hi], in chunks of theta."""
    ts = np.linspace(lo, hi, points)
    logs = []
    for chunk in np.array_split(ts, max(1, points // 200_000)):
        with np.errstate(divide="ignore"):  # log1p(cos) hits -1
            ll = np.log1p(np.cos(np.outer(chunk, data))).sum(axis=1)
        c = 1.0 + np.sin(chunk) / np.where(chunk == 0.0, 1.0, chunk)
        c[chunk == 0.0] = 2.0
        logs.append(ll - data.size * np.log(c) - chunk)
    logs = np.concatenate(logs)
    m = logs.max()
    w = np.exp(logs - m)
    return m + math.log((w.sum() - 0.5 * (w[0] + w[-1])) * (ts[1] - ts[0]))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _gauss_legendre_log(data, lo, hi, panels):
    """ln of the composite 20-node Gauss-Legendre rule for the joint density
    under the exponential prior (rate 1) on [lo, hi], in chunks of theta."""
    edges = np.linspace(lo, hi, panels + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    ts = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
    logs = []
    for chunk in np.array_split(ts, max(1, ts.size * data.size // (1 << 16))):
        with np.errstate(divide="ignore"):  # log1p(cos) hits -1
            ll = np.log1p(np.cos(np.outer(chunk, data))).sum(axis=1)
        logs.append(ll - data.size * np.log1p(np.sin(chunk) / chunk) - chunk)
    logs = np.concatenate(logs)
    m = logs.max()
    w = (half[:, None] * _GL_WEIGHTS).ravel()
    return m + math.log(float(np.dot(w, np.exp(logs - m))))


class TestGaussLegendreOracle:
    """Brackets checked against a composite Gauss-Legendre rule, where an
    adaptive Simpson rule with a Richardson estimate missed the oracle."""

    def test_far_tail_region_at_n1000(self):
        data = _uniform_data(1000, seed=3)
        # past theta = 105 the joint density is below e^-118 of its maximum;
        # on [5, 105], 1000 and 4000 panels agree to 10 digits
        log_in = log_add(_gauss_legendre_log(data, 5.0, 105.0, 1000),
                         _gauss_legendre_log(data, 105.0, 800.0, 200))
        log_out = _gauss_legendre_log(data, 0.0, 5.0, 80)
        want = 1.0 / (1.0 + math.exp(log_out - log_in))
        assert want == pytest.approx(4.4542483626e-258, rel=1e-10)
        got = CosineEngine(CosinePriorConfig(), data, quad_tol=1e-9).region_mass(5.0)
        assert got.lower <= want <= got.upper

    @pytest.mark.parametrize("seed, pinned", [(7, -0.0359267529), (11, -0.056182421)])
    def test_small_n_evidence(self, seed, pinned):
        # past theta = 200 the joint mass is below e^-200 2^20
        data = _uniform_data(20, seed)
        want = _gauss_legendre_log(data, 0.0, 200.0, 200)
        assert want == pytest.approx(pinned, abs=1e-9)  # seed 7: also mpmath
        got = CosineEngine(CosinePriorConfig(), data, quad_tol=1e-9).log_evidence()
        assert got.lower <= want <= got.upper


class TestSharpTail:
    """The tail beyond the reach is bounded to quad_tol of the part it joins,
    so a region holding the tail is as sharp as the quadrature."""

    def test_tail_region_encloses_a_dense_trapezoid_oracle(self):
        data = _uniform_data(40)
        got = CosineEngine(CosinePriorConfig(), data, quad_tol=1e-9).region_mass(5.0)
        # [5, 80] and [0, 5] at step 2.5e-5; beyond 80 the joint mass is
        # below e^-80 (2 / (1 - 1/80))^40 = 3e-23, 3e-12 of the region's
        log_in = _trapezoid_log(data, 5.0, 80.0, 3_000_001)
        log_out = _trapezoid_log(data, 0.0, 5.0, 200_001)
        want = 1.0 / (1.0 + math.exp(log_out - log_in))
        assert got.lower <= want <= got.upper
        assert got.upper - got.lower <= 1e-6 * got.lower

    @pytest.mark.parametrize("n", [160, 1000])
    def test_tail_region_bracket_is_sharp_at_large_n(self, n):
        got = CosineEngine(CosinePriorConfig(), _uniform_data(n),
                           quad_tol=1e-9).region_mass(5.0)
        assert 0.0 < got.lower and got.upper <= (1.0 + 1e-6) * got.lower


class TestHellingerMass:
    def test_diameter(self):
        eng = CosineEngine(CosinePriorConfig(), [0.5])
        assert eng.hellinger_mass(math.sqrt(2.0)).upper == 0.0

    def test_theta_zero_never_counted(self):
        assert cosine_hellinger_uniform(0.0) == 0.0  # d(f0,f0)=0

    def test_trend_under_uniform_truth(self):
        prior = CosinePriorConfig("exponential", rate=1.0)
        data = RandomStream(5, 0).uniform_open(1000)
        at10 = CosineEngine(prior, data[:10]).hellinger_mass(0.3)
        at1000 = CosineEngine(prior, data).hellinger_mass(0.3)
        assert at1000.upper <= at10.upper
        assert at1000.midpoint() <= at10.midpoint()

    def test_domain(self):
        eng = CosineEngine(CosinePriorConfig(), [0.5])
        with pytest.raises(ValueError):
            eng.hellinger_mass(0.0)


class TestHellingerGrid:
    def test_slices_equal_fresh_grids(self):
        cosine._hellinger_grid(1125.0)  # a grid longer than every cap below
        for cap in (30.0, 120.0, 750.0):
            grid, vals = cosine._hellinger_grid(cap)
            fresh = np.arange(0.0, cap + 0.02, 0.02)
            assert grid.size == fresh.size and (grid == fresh).all()
            assert (vals == cosine_hellinger_uniform(fresh)).all()

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.44, 0.45, 0.5, 0.7])
    def test_envelopes_equal_a_loop_merge(self, eps):
        def merge(grid, cells):  # the reference: one pass over the cells
            out, start = [], None
            for i, m in enumerate(cells):
                if m and start is None:
                    start = grid[i]
                if not m and start is not None:
                    out.append((start, grid[i]))
                    start = None
            if start is not None:
                out.append((start, grid[-1]))
            return out

        for theta_hi in (3.0, 45.0, 750.0, 1237.3):
            grid, vals = cosine._hellinger_grid(theta_hi)
            above = (vals > eps).tolist()
            inner = [a and b for a, b in zip(above[:-1], above[1:])]
            outer = [a or b for a, b in zip(above[:-1], above[1:])]
            want = (merge(grid.tolist(), inner), merge(grid.tolist(), outer))
            assert cosine._region_above(eps, theta_hi) == want, theta_hi


class TestQuadratureBudget:
    """A reach with more half periods than one quadrature may hold fails
    before anything of that reach is built."""

    @pytest.fixture
    def no_likelihood(self, monkeypatch):
        def fail(theta, data):
            raise AssertionError("the likelihood was evaluated")

        monkeypatch.setattr(cosine, "cosine_loglik", fail)

    def test_head_past_the_budget(self, no_likelihood):
        # [0, 10^6] holds 286479 half periods pi / 0.9 of the likelihood
        eng = CosineEngine(CosinePriorConfig("truncated_uniform", theta_max=1e6), [0.9])
        with pytest.raises(numerics.QuadratureError,
                           match="holds 286479 panels of a half period of the likelihood"):
            eng.log_evidence()

    def test_hellinger_grid_past_the_budget(self, no_likelihood):
        # 31832 half periods pi / 0.1 of the likelihood, but the distance
        # curve's half period is pi: its grid is never grown to 10^6
        eng = CosineEngine(CosinePriorConfig("truncated_uniform", theta_max=1e6), [0.1])
        size = cosine._dh_grid.size
        with pytest.raises(numerics.QuadratureError, match="the Hellinger distance"):
            eng.hellinger_mass(0.5)
        assert cosine._dh_grid.size == size

    def test_reach_past_the_budget(self):
        # the head [0, 30] integrates; the reach near 2e6 is refused
        eng = CosineEngine(CosinePriorConfig("exponential", rate=1e-5), [0.9])
        with pytest.raises(numerics.QuadratureError,
                           match=r"\[30.0, .*half period of the likelihood"):
            eng.log_evidence()


def _scalar_log_joint(prior, data, theta):
    # log_joint of one theta on its own, without the memo
    lp = float(prior.log_density(theta))
    if lp == LOG_ZERO or len(data) == 0:
        return lp
    return lp + float(cosine_loglik(np.array([theta]), data)[0])


class TestOnePerTheta:
    """The engine evaluates each theta once per state and keeps the bits of
    the plain evaluation, whichever batch computed it."""

    @pytest.mark.parametrize("prior, data", [
        (CosinePriorConfig("exponential", rate=1.0),
         RandomStream(8, 0).uniform_open(300)),
        (CosinePriorConfig("truncated_uniform", theta_max=7.0),
         np.append(RandomStream(9, 0).uniform_open(40), 1.0)),
        (CosinePriorConfig("exponential", rate=0.5), np.zeros(0)),
        # 6 thetas per chunk of the theta x data matrix
        (CosinePriorConfig("exponential", rate=1.0),
         RandomStream(10, 0).uniform_open(5000)),
    ])
    def test_memoized_log_joint_equals_scalar(self, prior, data):
        rng = np.random.default_rng(11)
        thetas = [0.0, math.pi, 2.0 * math.pi, 7.0, 7.5, 120.0,
                  *(rng.random(40) * 60.0).tolist()]
        want = [_scalar_log_joint(prior, data, t) for t in thetas]
        eng = CosineEngine(prior, data)
        assert eng.log_joint(np.array(thetas)).tolist() == want
        # the second pass reads the memo, in another order
        assert eng.log_joint(np.array(thetas[::-1])).tolist() == want[::-1]
        for size in (1, 3, 17):
            fresh = CosineEngine(prior, data)
            got = [fresh.log_joint(np.array(thetas[i:i + size])).tolist()
                   for i in range(0, len(thetas), size)]
            assert sum(got, []) == want, size
        # theta = pi on x = 1 sits on a pdf zero (up to float pi); beyond
        # theta_max the prior density is zero
        if prior.kind == "truncated_uniform":
            assert want[1] < -60.0
            assert want[4] == LOG_ZERO

    def test_each_theta_reaches_the_likelihood_once(self, monkeypatch):
        prior = CosinePriorConfig("exponential", rate=1.0)
        data = RandomStream(12, 0).uniform_open(60)
        seen = []
        quads = []
        loglik = cosine.cosine_loglik

        def count_loglik(theta, x):
            seen.extend(theta.tolist())
            return loglik(theta, x)

        def record_quadrature(f, a, b, tol, **kw):
            res = numerics.adaptive_quadrature(f, a, b, tol, **kw)
            quads.append((f, a, b, tol, kw, res))
            return res

        monkeypatch.setattr(cosine, "cosine_loglik", count_loglik)
        monkeypatch.setattr(cosine, "adaptive_quadrature", record_quadrature)
        eng = CosineEngine(prior, data)
        eng.log_evidence()
        eng.region_mass(5.0)
        eng.region_mass(1.0, 3.0)
        eng.hellinger_mass(0.3)
        eng.hellinger_mass(0.5)
        assert len(quads) >= 5
        assert len(seen) == len(set(seen))
        # interior panels repeat across the quadratures
        assert len(seen) < sum(q[-1].evaluations for q in quads)
        monkeypatch.undo()
        # the memo holds the bits of the plain evaluation, and each recorded
        # quadrature (a head piece, or a piece past the head on an integrand
        # shifted by its floor) replays to the same result
        assert all(v == _scalar_log_joint(prior, data, t)
                   for t, v in eng._joint.items())
        assert any(not kw["relative"] for *_, kw, _ in quads)
        for f, a, b, tol, kw, res in quads:
            assert numerics.adaptive_quadrature(f, a, b, tol, **kw) == res
