"""Cosine-model tests: the closed-form distance curve is verified against
the generic numeric integrator before the engine relies on it; posterior
masses are checked against trapezoid oracles, for additivity and for the
sharpness of their tail brackets."""

import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from oracles import CosineDensity, cosine_loglik, gauss_legendre_log, hellinger_numeric
from posterior_lab import cosine, numerics
from posterior_lab.cosine import (
    CosineEngine,
    CosinePriorConfig,
    cosine_hellinger_uniform,
)
from posterior_lab.densities import UniformDensity
from posterior_lab.diagnostics import (DiagnosticSettings, cosine_statistics,
                                       evaluate_diagnostics)
from posterior_lab.harness import DATA_STREAM, RunConfig, evaluation_grid, run_trajectory
from posterior_lab.intervals import Bracket, LogBracket
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


def _loglik_mp(theta, data):
    """ln L at theta (an mpf) from the half-angle form 2 cos^2(u_i), u_i =
    theta x_i / 2, with the bound eps sum_i (|u_i| + 8) / |cos u_i| + 64 eps
    |ln L| on the error of a float evaluation at theta"""
    ln_l, terms = mp.mpf(0), mp.mpf(0)
    for x in data.tolist():
        u = theta * x / 2
        cu = mp.cos(u)
        ln_l += mp.log(2 * cu * cu)
        terms += (abs(u) + 8) / abs(cu)
    ln_l -= data.size * mp.log(1 + mp.sin(theta) / theta)
    return ln_l, numerics._EPS * (terms + 64 * abs(ln_l))


class TestPanelLikelihood:
    """The panel kernel builds each node's half-angle cosine from its
    panel's centre by angle addition; checked against mpmath at 40 digits."""

    @staticmethod
    def panels():
        # 3 panels a width, from the seed panel width of data reaching
        # x = 1 down to 2^-12 of it, with centres up to theta = 6000, and a
        # panel centred on theta = pi, a pdf zero at x = 1: 600 nodes
        rng = np.random.default_rng(14)
        half = CosineEngine(CosinePriorConfig(), [1.0])._half
        h = np.repeat(0.5 * half * 2.0 ** -np.arange(13.0), 3)
        k = rng.integers(0, (6000.0 / (2.0 * h)).astype(np.int64))
        return np.append((k + 0.5) * 2.0 * h, math.pi), np.append(h, 0.25)

    def test_within_the_rounding_bound_of_mpmath(self):
        data = np.append(RandomStream(13, 0).uniform_open(39), 1.0)
        c, h = self.panels()
        assert c.max() > 5000.0 and c.size * 15 == 600
        kernel = cosine._panel_loglik(c, h, data)
        floats = cosine_loglik(numerics.kronrod_nodes(c, h), data)
        worst = [0.0, 0.0]
        with mp.workdps(40):
            for ci, hi, row_k, row_f in zip(c.tolist(), h.tolist(), kernel, floats):
                for xi, vk, vf in zip(numerics._NODES.tolist(), row_k.tolist(),
                                      row_f.tolist()):
                    # the kernel at the exact node c + h xi, cosine_loglik
                    # at its float value
                    for j, (theta, v) in enumerate(
                            ((mp.mpf(ci) + mp.mpf(hi) * mp.mpf(xi), vk),
                             (mp.mpf(ci + hi * xi), vf))):
                        want, bound = _loglik_mp(theta, data)
                        ratio = float(abs(v - want) / bound)
                        assert ratio <= 1.0, (ci, hi, xi, j)
                        worst[j] = max(worst[j], ratio)
        assert kernel[-1, 7] < -60.0  # the node on the pdf zero
        assert 0.0 < worst[0] and 0.0 < worst[1]


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


class TestAddPoints:
    """The engine streams as the Barron engine does: add_points appends a
    block and leaves the state of a fresh engine on all the data."""

    def test_streamed_engine_equals_a_fresh_engine_per_n(self):
        # the four default statistics, bit for bit, along a grid that reaches
        # past the head (pieces share panels from n = 40 on)
        cfg = RunConfig(model="cosine")
        data = cfg.truth.sample(RandomStream(3, DATA_STREAM), 160)
        grid = evaluation_grid(160, 2.0)

        def four(eng):
            return (eng.hellinger_mass(0.5), eng.hellinger_mass(0.7),
                    eng.region_mass(5.0), eng.log_evidence())

        streamed = CosineEngine(cfg.cosine_prior, [], quad_tol=cfg.quad_tol)
        for prev, n in zip([0] + grid, grid):
            streamed.add_points(data[prev:n])
            fresh = CosineEngine(cfg.cosine_prior, data[:n], quad_tol=cfg.quad_tol)
            assert streamed.n == n
            assert four(streamed) == four(fresh), n

    def test_a_kept_failure_is_raised_again_without_quadrature(self, monkeypatch):
        calls, raised = [], []

        def first_fails(*args, **kwargs):
            calls.append(args[1:3])
            if not raised:
                raised.append(numerics.QuadratureError("injected", 0.0, math.inf, 0))
                raise raised[0]
            return numerics.adaptive_quadrature(*args, **kwargs)

        monkeypatch.setattr(cosine, "adaptive_quadrature", first_fails)
        eng = CosineEngine(CosinePriorConfig(), RandomStream(6, 0).uniform_open(20))
        with pytest.raises(numerics.QuadratureError) as first:
            eng.hellinger_mass(0.5)
        assert first.value is raised[0] and len(calls) == 1
        # every later query at this n, the eps >= sqrt(2) shortcut included
        for query in (lambda: eng.hellinger_mass(0.7), lambda: eng.region_mass(5.0),
                      eng.log_evidence, lambda: eng.hellinger_mass(2.0)):
            with pytest.raises(numerics.QuadratureError) as again:
                query()
            assert again.value is raised[0]
        assert len(calls) == 1
        eng.add_points([0.4])
        assert eng.hellinger_mass(2.0) == Bracket(0.0, 0.0)
        assert math.isfinite(eng.log_evidence().upper)
        assert len(calls) > 1

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
    def test_a_point_outside_the_unit_interval_is_rejected(self, bad):
        # NaN fails every comparison, so the check is a negated in-range test
        with pytest.raises(ValueError, match=f"got {bad}"):
            CosineEngine(CosinePriorConfig(), [0.3, bad])
        eng = CosineEngine(CosinePriorConfig(), [0.3, 0.6])
        with pytest.raises(ValueError, match=f"got {bad}"):
            eng.add_points([0.5, bad])
        assert eng.data.tolist() == [0.3, 0.6]

    @pytest.mark.parametrize("x", [1e-302, 1e-305, 5e-324])
    def test_a_half_period_past_the_float_range_ends_no_piece(self, x):
        # pi / x in units of 2^-20 overflows below about 1.8e-302; so long a
        # half period puts no breakpoint in any piece, as at 2e-302
        eng = CosineEngine(CosinePriorConfig(), [x])
        assert eng._half == math.inf
        assert eng.log_evidence() == LogBracket(0.15622074077888312, 0.1562207433078553)
        assert eng.log_evidence() == CosineEngine(CosinePriorConfig(), [2e-302]).log_evidence()


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


class TestGaussLegendreOracle:
    """Brackets checked against a composite Gauss-Legendre rule, where an
    adaptive Simpson rule with a Richardson estimate missed the oracle."""

    def test_far_tail_region_at_n1000(self):
        data = _uniform_data(1000, seed=3)
        # past theta = 105 the joint density is below e^-118 of its maximum;
        # on [5, 105], 1000 and 4000 panels agree to 10 digits
        log_in = log_add(gauss_legendre_log(data, 5.0, 105.0, 1000),
                         gauss_legendre_log(data, 105.0, 800.0, 200))
        log_out = gauss_legendre_log(data, 0.0, 5.0, 80)
        want = 1.0 / (1.0 + math.exp(log_out - log_in))
        assert want == pytest.approx(4.4542483626e-258, rel=1e-10)
        got = CosineEngine(CosinePriorConfig(), data, quad_tol=1e-9).region_mass(5.0)
        assert got.lower <= want <= got.upper

    def test_region_mass_holds_the_narrow_peaks_past_the_head(self):
        # seed 66, n = 1000: e^-557.3 of the region's e^-552.5 sits in narrow
        # likelihood peaks on [31.4, 100], whose value 2000 to 16000 panels
        # agree on to 1e-15.  K15 panels seeded at multiples of pi instead of
        # pi / max(x) missed them and printed the ratio without that piece,
        # 0.79% low; so may a change to the seed lattice, the head or the reach
        data = _uniform_data(1000, seed=66)
        head = gauss_legendre_log(data, 5.0, 31.4, 500)
        peaks = gauss_legendre_log(data, 31.4, 100.0, 1000)
        far = gauss_legendre_log(data, 100.0, 200.0, 100)  # about e^-711.8
        log_out = gauss_legendre_log(data, 0.0, 5.0, 80)
        assert head == pytest.approx(-552.4869814013, abs=1e-9)
        assert peaks == pytest.approx(-557.3242358515, abs=1e-9)
        want = 1.0 / (1.0 + math.exp(log_out - log_add(log_add(head, peaks), far)))
        without_peaks = 1.0 / (1.0 + math.exp(log_out - log_add(head, far)))
        assert want == pytest.approx(2.0644193440e-240, rel=1e-10)
        assert without_peaks == pytest.approx(2.0481797505e-240, rel=1e-10)
        got = CosineEngine(CosinePriorConfig(), data, quad_tol=1e-9).region_mass(5.0)
        assert got.lower <= want <= got.upper
        assert without_peaks < got.lower

    @pytest.mark.parametrize("seed, pinned", [(7, -0.0359267529), (11, -0.056182421)])
    def test_small_n_evidence(self, seed, pinned):
        # past theta = 200 the joint mass is below e^-200 2^20
        data = _uniform_data(20, seed)
        want = gauss_legendre_log(data, 0.0, 200.0, 200)
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

    def test_an_inverted_envelope_pair_is_a_recorded_gap(self, monkeypatch):
        # only a quadrature miss can put the inner envelope's lower end above
        # the outer one's upper end: the inner envelope here holds nearly all
        # the mass and the outer one nearly none
        parts, envelopes = CosineEngine._parts, []

        def inverted(self, intervals_to, cuts_to, tail_in, region_end=0.0):
            if not isinstance(tail_in, functools.partial):  # not a Hellinger query
                return parts(self, intervals_to, cuts_to, tail_in, region_end)
            envelopes.append(len(envelopes) % 2)
            heavy, light = LogBracket(0.0, 0.0), LogBracket(-50.0, -50.0)
            return (light, heavy) if envelopes[-1] else (heavy, light)

        monkeypatch.setattr(CosineEngine, "_parts", inverted)
        cfg = RunConfig(model="cosine", n_max=3,
                        diagnostics=DiagnosticSettings(epsilons=(0.5,)))
        traj = run_trajectory(cfg, 2)
        message = re.compile(r"hellinger_mass_0\.5: hellinger_mass\(0\.5\) at n = (\d+): "
                             r"the inner envelope's lower end (\S+) lies above the "
                             r"outer envelope's upper end (\S+)$")
        assert [n for n, _ in traj.errors] == traj.grid
        for n, text in traj.errors:
            got = message.match(text)
            assert got and int(got[1]) == n
            assert float(got[2]) == 1.0
            assert float(got[3]) == pytest.approx(math.exp(-50.0), rel=1e-12)
        assert envelopes == [0, 1] * len(traj.grid)
        assert all(br is None for _, br in traj.bracket_series("hellinger_mass_0.5"))
        assert all(br is not None for _, br in traj.bracket_series("log_evidence"))


class TestHellingerGrid:
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.44, 0.45, 0.5, 0.7])
    def test_envelopes_equal_a_loop_merge(self, eps):
        # the reference merges the cells of the full grid; 12.28 and 73.1
        # are where the tail bounds decide 0.7 and 0.5, past which the
        # region stops its grid, so the runs agree once clamped to theta_hi
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

        def clamp(runs, hi):
            return [(min(a, hi), min(b, hi)) for a, b in runs]

        for theta_hi in (3.0, 12.28, 30.0, 45.0, 73.1, 750.0, 1237.3):
            grid = np.arange(0.0, theta_hi + 0.02, 0.02)
            above = (cosine_hellinger_uniform(grid) > eps).tolist()
            inner = [a and b for a, b in zip(above[:-1], above[1:])]
            outer = [a or b for a, b in zip(above[:-1], above[1:])]
            want = [clamp(merge(grid.tolist(), cells), theta_hi) for cells in (inner, outer)]
            got = [clamp(runs, theta_hi) for runs in cosine._region_above(eps, theta_hi)]
            assert got == want, theta_hi

    def test_a_region_stops_its_grid_where_the_tail_bounds_decide(self):
        assert cosine._decided_from(0.5, 10 ** 8) == (3655, False)  # theta = 73.1
        assert cosine._decided_from(0.7, 10 ** 8) == (614, False)   # theta = 12.28
        # the grid up to 5e4 holds 2.5e6 points; only the 3656 up to 73.1 are built
        cosine._region_above.cache_clear()
        tracemalloc.start()
        try:
            cosine._region_above(0.5, 5e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_a_query_computes_each_region_once(self, monkeypatch):
        # the inner and the outer envelope both ask for the region at the
        # head (45 at n = 60) and at their reach past it, once for their
        # intervals and once for the cuts that both share
        grids = []
        dh = cosine.cosine_hellinger_uniform
        monkeypatch.setattr(cosine, "cosine_hellinger_uniform",
                            lambda t: grids.append(t.size) or dh(t))
        cosine._region_above.cache_clear()
        eng = CosineEngine(CosinePriorConfig("exponential", rate=1.0),
                           RandomStream(12, 0).uniform_open(60))
        eng.hellinger_mass(0.5)
        info = cosine._region_above.cache_info()
        assert info.hits + info.misses == 8 and info.misses <= 3
        assert len(grids) == info.misses


class TestQuadratureBudget:
    """A reach with more half periods than one quadrature may hold fails
    before anything of that reach is built."""

    @pytest.fixture
    def no_likelihood(self, monkeypatch):
        def fail(c, h, data):
            raise AssertionError("the likelihood was evaluated")

        monkeypatch.setattr(cosine, "_panel_loglik", fail)

    def test_head_past_the_budget(self, no_likelihood):
        # [0, 10^6] holds 286479 half periods pi / 0.9 of the likelihood
        eng = CosineEngine(CosinePriorConfig("truncated_uniform", theta_max=1e6), [0.9])
        with pytest.raises(numerics.QuadratureError,
                           match="holds 286479 panels of a half period of the likelihood"):
            eng.log_evidence()

    def test_hellinger_grid_past_the_budget(self, no_likelihood, monkeypatch):
        # 31832 half periods pi / 0.1 of the likelihood, but the distance
        # curve's half period is pi: no grid of d_h is built for 10^6
        def fail(theta):
            raise AssertionError("the Hellinger grid was built")

        monkeypatch.setattr(cosine, "cosine_hellinger_uniform", fail)
        eng = CosineEngine(CosinePriorConfig("truncated_uniform", theta_max=1e6), [0.1])
        with pytest.raises(numerics.QuadratureError, match="the Hellinger distance"):
            eng.hellinger_mass(0.5)

    def test_reach_past_the_budget(self):
        # the head [0, 30] integrates; the reach near 2e6 is refused
        eng = CosineEngine(CosinePriorConfig("exponential", rate=1e-5), [0.9])
        with pytest.raises(numerics.QuadratureError,
                           match=r"\[30.0, .*half period of the likelihood"):
            eng.log_evidence()


def _log_joint(prior, data):
    # the engine's integrand on panels: the prior at the float nodes plus
    # the panel likelihood
    def f(c, h):
        return prior.log_density(numerics.kronrod_nodes(c, h)) \
            + cosine._panel_loglik(c, h, data)

    return f


def _panel_alone(f, c, h):
    # f's 15 values on each panel computed on its own, outside any batch
    return np.array([f(np.array([ci]), np.array([hi]))[0]
                     for ci, hi in zip(c.tolist(), h.tolist())])


class TestOnePerTheta:
    """The engine keeps one memo of the joint on Kronrod panels: each panel
    reaches the likelihood once per data set, whichever integrand asks for
    it, and a panel keeps the bits of its evaluation on its own, whichever
    batch, order or chunk computed it."""

    @pytest.mark.parametrize("prior, data", [
        (CosinePriorConfig("exponential", rate=1.0),
         RandomStream(8, 0).uniform_open(300)),
        (CosinePriorConfig("truncated_uniform", theta_max=7.0),
         np.append(RandomStream(9, 0).uniform_open(40), 1.0)),
        (CosinePriorConfig("exponential", rate=0.5), np.zeros(0)),
        # one panel per chunk of the (panel, node, data) buffers
        (CosinePriorConfig("exponential", rate=1.0),
         RandomStream(10, 0).uniform_open(5000)),
    ])
    def test_memoized_log_joint_equals_scalar(self, prior, data):
        # what the memo holds is computed on whole batches of panels,
        # widths mixed: each panel's values must not depend on the batch.
        # 40 panels share one width, so at n = 300 (7 panels a chunk) and
        # n = 41 (39) that width's rows cross chunk boundaries
        rng = np.random.default_rng(11)
        half = math.pi / 0.9 / 4
        c = np.array([math.pi, 2.0 * math.pi, 7.0, 7.5, 120.0,
                      *(half * (rng.integers(0, 160, 40) + 0.5)).tolist(),
                      *(rng.random(12) * 60.0).tolist()])
        h = np.array([0.5, 0.5, 0.25, 0.5, 3.0, *[0.5 * half] * 40,
                      *(rng.random(12) + 0.01).tolist()])
        f = _log_joint(prior, data)
        want = _panel_alone(f, c, h)
        assert np.array_equal(f(c, h), want)
        # in the other order, and in batches of every size
        assert np.array_equal(f(c[::-1], h[::-1]), want[::-1])
        for size in (2, 3, 17):
            got = [f(c[i:i + size], h[i:i + size]) for i in range(0, c.size, size)]
            assert np.array_equal(np.concatenate(got), want), size
        # theta = pi on x = 1 sits on a pdf zero (up to float pi): the
        # centre of the first panel; beyond theta_max the prior density is zero
        if prior.kind == "truncated_uniform":
            assert want[0, 7] < -60.0
            assert want[3, 14] == LOG_ZERO

    def test_each_panel_reaches_the_likelihood_once(self, monkeypatch):
        # at n = 60 the head ends at theta = 45, and the four default
        # statistics extend past it with several floors (four here) over the
        # same half-period breakpoints: the integrands of all of them read
        # one memo
        cfg = RunConfig(model="cosine")
        prior, data = cfg.cosine_prior, RandomStream(12, 0).uniform_open(60)
        asked = []   # the panels each quadrature's integrand asked for
        quads = []
        seen = []    # every panel a likelihood pass evaluated
        loglik = cosine._panel_loglik

        def count_loglik(c, h, x):
            seen.extend(zip(c.tolist(), h.tolist()))
            return loglik(c, h, x)

        def record_quadrature(f, a, b, tol, **kw):
            mine = []

            def g(c, h):
                mine.extend(zip(c.tolist(), h.tolist()))
                return f(c, h)

            asked.append(mine)
            res = numerics.adaptive_quadrature(g, a, b, tol, **kw)
            quads.append(res)
            return res

        monkeypatch.setattr(cosine, "_panel_loglik", count_loglik)
        monkeypatch.setattr(cosine, "adaptive_quadrature", record_quadrature)
        eng = CosineEngine(prior, data, quad_tol=cfg.quad_tol)
        row, errors = evaluate_diagnostics(
            eng, cosine_statistics(cfg.diagnostics, cfg.cosine_regions))
        monkeypatch.undo()
        assert errors == [] and all(map(math.isfinite, row.values()))
        # each new piece is one quadrature, in the order the cache holds them
        assert len(quads) == len(eng._cache)
        floors = {}
        for (lo, hi, floor), panels in zip(eng._cache, asked):
            for p in panels:
                floors.setdefault(p, set()).add(floor)
        assert len({floor for *_, floor in eng._cache} - {None}) >= 2
        assert sum(len(f - {None}) >= 2 for f in floors.values()) > 50
        # every panel asked for reached the likelihood once, whichever
        # integrand asked first; the rule counts the nodes it asked for
        assert len(seen) == len(set(seen)) == len(eng._memo)
        assert set(seen) == set(floors) == set(eng._memo)
        assert sum(q.evaluations for q in quads) == 15 * sum(map(len, asked)) \
            > 15 * len(seen)
        # each memo row holds the bits of its panel evaluated alone
        joint = _log_joint(prior, data)
        assert sorted(eng._memo.values()) == list(range(len(eng._rows)))
        for (c, h), i in eng._memo.items():
            assert np.array_equal(eng._rows[i], _panel_alone(joint, np.array([c]),
                                                             np.array([h]))[0]), (c, h)
        # and each piece keeps the bits of a quadrature that evaluates every
        # panel itself, on the joint or on the joint less its floor
        for (lo, hi, floor), br in eng._cache.items():
            def alone(c, h, floor=floor):
                v = joint(c, h)
                return v if floor is None else v - floor

            res = numerics.adaptive_quadrature(
                alone, lo, hi, cfg.quad_tol, breakpoints=eng._breakpoints(lo, hi),
                relative=floor is None)
            want = LogBracket(*res.log_bracket())
            assert br == (want if floor is None else want.shift(floor)), (lo, hi, floor)

    def test_four_statistics_at_n1000_peak_under_0_8_mib(self):
        # a default cosine row at seed 3, n = 1000: the panel memo and one
        # chunk of the theta x data matrix, not a float pair per theta.  A
        # fresh interpreter measures it, so the peak does not depend on
        # what earlier tests left loaded or cached
        src = os.path.dirname(os.path.dirname(cosine.__file__))
        script = (
            "import tracemalloc\n"
            "from posterior_lab.cosine import CosineEngine\n"
            "from posterior_lab.harness import DATA_STREAM, RunConfig\n"
            "from posterior_lab.numerics import RandomStream\n"
            "cfg = RunConfig(model='cosine')\n"
            "data = cfg.truth.sample(RandomStream(3, DATA_STREAM), 1000)\n"
            "tracemalloc.start()\n"
            "eng = CosineEngine(cfg.cosine_prior, data, quad_tol=cfg.quad_tol)\n"
            "eng.hellinger_mass(0.5)\n"
            "eng.hellinger_mass(0.7)\n"
            "eng.region_mass(5.0)\n"
            "eng.log_evidence()\n"
            "print(tracemalloc.get_traced_memory()[1])\n")
        out = subprocess.run([sys.executable, "-c", script], check=True, text=True,
                             capture_output=True, env=dict(os.environ, PYTHONPATH=src))
        assert int(out.stdout) < 0.8 * 2 ** 20
