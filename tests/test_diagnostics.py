"""Diagnostic-statistic tests: exact-level conventions, band geometry via an
independent dense-grid oracle, the beta-bound/sup-likelihood equivalence,
and trajectory scans."""

import math

import numpy as np
import pytest
from posterior_lab.barron import BarronEngine
from posterior_lab.densities import GaussExpDensity, UniformDensity
from posterior_lab.diagnostics import (
    BandSpec,
    DiagnosticSettings,
    band_posterior_mass,
    band_prior_exponent,
    band_u_intervals,
    barron_statistics,
    beta_bound_mass,
    cosine_statistics,
    evaluate_diagnostics,
    evidence_lower_flag,
    gamma_stat,
    sup_loglik_f0,
)
from posterior_lab.numerics import LN2, QuadratureError, RandomStream


def uniform_engine(n, seed=1):
    e = BarronEngine(truth=UniformDensity())
    e.add_points(RandomStream(seed, 0).uniform_open(n))
    return e


class TestBandSpec:
    def test_validation(self):
        BandSpec(0.2, 0.2)
        with pytest.raises(ValueError):
            BandSpec(0.0, 0.5)
        with pytest.raises(ValueError):
            BandSpec(0.6, 0.5)


class TestSupLoglik:
    def test_nonpositive_mean(self):
        assert sup_loglik_f0(0.0, 10) == 0.0
        assert sup_loglik_f0(-3.0, 10) == 0.0

    def test_interior(self):
        # calculus value n w^2/2, confirmed by a dense grid search
        assert sup_loglik_f0(0.1, 100) == pytest.approx(0.5, abs=1e-12)
        u = np.linspace(0.0, 1.0, 100_001)
        grid = 100 * np.max(-u * u + math.sqrt(2) * 0.1 * u)
        assert sup_loglik_f0(0.1, 100) == pytest.approx(grid, abs=1e-6)

    def test_boundary(self):
        want = 10 * (2 * math.sqrt(2) - 1)
        assert sup_loglik_f0(2.0, 10) == pytest.approx(want, abs=1e-12)
        u = np.linspace(0.0, 1.0, 100_001)
        grid = 10 * np.max(-u * u + math.sqrt(2) * 2.0 * u)
        assert sup_loglik_f0(2.0, 10) == pytest.approx(grid, abs=1e-6)


class TestBandGeometry:
    """band_u_intervals against a dense-grid membership oracle."""

    @pytest.mark.parametrize("w", [-0.5, 0.0, 0.3, 0.9, 1.3, 2.0])
    @pytest.mark.parametrize("lo,hi", [(0.1, 0.4), (0.3, 0.3001), (0.6, 0.75),
                                       (0.05, math.inf), (-0.2, 0.1)])
    def test_matches_grid_oracle(self, w, lo, hi):
        u = np.linspace(0.0, 1.0, 200_001)
        p = -u * u + math.sqrt(2) * w * u
        member = (p >= lo) & (p <= hi)
        segs = band_u_intervals(w, lo, hi)
        inside = np.zeros_like(member)
        for a, b in segs:
            inside |= (u >= a) & (u <= b)
        # agreement away from the segment boundaries
        mismatch = np.flatnonzero(member != inside)
        if mismatch.size:
            bad = u[mismatch]
            tol = 2e-5
            assert all(min((abs(x - e) for s in segs for e in s),
                           default=math.inf) < tol or
                       min(abs(p[i] - lo), abs(p[i] - hi)) < 1e-4
                       for x, i in zip(bad, mismatch))

    def test_w_zero_positive_band_empty(self):
        assert band_u_intervals(0.0, 0.2, 0.4) == []


class TestGammaStat:
    def test_prior_convention(self):
        g = gamma_stat(BarronEngine(truth=UniformDensity()))
        assert g.mass.midpoint() == 0.5
        assert g.matched

    def test_equals_step_mass_under_uniform_truth(self):
        e = uniform_engine(200)
        g = gamma_stat(e)
        _, fs = e.posterior_split()
        assert g.realized_level == pytest.approx(LN2, abs=1e-15)
        assert g.mass.lower == fs.lower and g.mass.upper == fs.upper

    def test_mismatched_level_gives_zero(self):
        e = uniform_engine(50)
        g = gamma_stat(e, gamma=0.3)
        assert g.mass.upper == 0.0
        assert not g.matched
        assert g.realized_level == pytest.approx(LN2, abs=1e-15)

    def test_tilt_truth_small(self):
        data = GaussExpDensity(0.5).sample(RandomStream(21, 0), 300)
        e = BarronEngine(truth=GaussExpDensity(0.5))
        e.add_points([float(x) for x in data])
        g = gamma_stat(e)
        assert g.mass.upper <= 0.01
        assert g.realized_level != pytest.approx(LN2, abs=1e-6)


class TestBandPosteriorMass:
    def test_zero_tilt_part_when_w_nonpositive(self):
        e = BarronEngine(truth=UniformDensity())
        e.add_point(0.5)   # W_1 = 0
        e.add_point(0.5)
        band = BandSpec(0.2, 0.4)
        assert band_posterior_mass(e, band).upper == 0.0

    def test_band_containing_ln2_tracks_step_mass(self):
        e = uniform_engine(300)
        bm = band_posterior_mass(e, BandSpec(0.6, 0.75))
        _, fs = e.posterior_split()
        assert bm.lower >= fs.lower - 1e-9
        assert bm.midpoint() == pytest.approx(fs.midpoint(), abs=1e-6)

    def test_narrow_band_off_ln2_small(self):
        e = uniform_engine(300)
        bm = band_posterior_mass(e, BandSpec(0.2, 0.4))
        assert bm.upper <= 1.0 - e.posterior_split()[1].lower + 1e-9

    def test_tilt_part_against_direct_quadrature(self):
        # independent check of the quadratic-set geometry: integrate the
        # posterior density over a dense theta grid restricted to the band
        data = GaussExpDensity(0.5).sample(RandomStream(31, 0), 120)
        e = BarronEngine(truth=GaussExpDensity(0.5))
        e.add_points([float(x) for x in data])
        cbar = e.mean_log_truth
        band = BandSpec(0.05, 0.45)
        got = band_posterior_mass(e, band)
        thetas = np.linspace(1e-6, 1.0, 400_001)
        logpost = -1.0 / thetas - e.n * thetas + \
            np.sqrt(2 * thetas) * e._s
        w = np.exp(logpost - logpost.max())
        level = -thetas + np.sqrt(2 * thetas) * e.w_n - cbar
        inband = (level >= band.alpha) & (level <= band.beta)
        frac = float(w[inband].sum() / w.sum())
        f0, _ = e.posterior_split()
        want = frac * f0.midpoint()
        assert got.midpoint() == pytest.approx(want, abs=2e-3)


class TestBandPriorExponent:
    def test_single_point_ln4(self):
        e = BarronEngine(truth=UniformDensity())
        e.add_point(0.5)
        got = band_prior_exponent(e, BandSpec(LN2, LN2))
        assert got == pytest.approx(math.log(4.0), abs=1e-9)

    def test_zero_mass_is_inf(self):
        e = uniform_engine(20)
        assert band_prior_exponent(e, BandSpec(0.2, 0.2)) == math.inf

    def test_wide_band_includes_tilt_prior(self):
        # a band [lo, hi] strictly containing ln2 gains tilt prior mass when
        # W_n is large enough for the quadratic set to be nonempty
        e = BarronEngine(truth=UniformDensity())
        e.add_points([0.95, 0.9])  # strongly positive W
        wide = band_prior_exponent(e, BandSpec(1e-4, 2.0))
        deg = band_prior_exponent(e, BandSpec(LN2, LN2))
        assert wide < deg  # more prior mass => smaller exponent

    def test_trend_toward_ln2(self):
        e = BarronEngine(truth=UniformDensity())
        data = RandomStream(1, 0).uniform_open(500)
        vals = {}
        for i, x in enumerate(data, 1):
            e.add_point(float(x))
            if i in (50, 120, 280, 500):
                vals[i] = band_prior_exponent(e, BandSpec(LN2, LN2))
        ns = sorted(vals)
        gaps = [abs(vals[n] - LN2) for n in ns]
        # monotone approach, tolerating at most one grid-step violation
        violations = sum(1 for a, b in zip(gaps, gaps[1:]) if b > a + 1e-12)
        assert violations <= 1
        assert gaps[-1] <= 0.05


class TestBetaBoundMass:
    def test_zero_iff_sup_condition(self):
        # the emptiness equivalence, exercised on engines with forced W_n
        cases = [[0.5, 0.5], [0.9, 0.95], [0.99, 0.995, 0.999],
                 [0.2, 0.4], [0.97] * 3, [0.5]]
        for pts in cases:
            e = BarronEngine(truth=UniformDensity())
            e.add_points(pts)
            for beta in (0.0, 0.1, LN2, 1.0):
                bb = beta_bound_mass(e, beta)
                step_zero = beta >= LN2
                tilt_zero = sup_loglik_f0(e.w_n, e.n) / e.n <= beta
                if step_zero and tilt_zero:
                    assert bb.upper == 0.0, (pts, beta)
                else:
                    assert bb.upper > 0.0, (pts, beta)

    def test_ln2_zero_when_w_small(self):
        e = uniform_engine(200)
        assert sup_loglik_f0(e.w_n, e.n) / e.n <= LN2
        assert beta_bound_mass(e, LN2).upper == 0.0

    def test_beta_zero_positive_w(self):
        e = BarronEngine(truth=UniformDensity())
        e.add_points([0.8, 0.9, 0.7])
        bb = beta_bound_mass(e, 0.0)
        assert bb.lower > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            beta_bound_mass(uniform_engine(5), -0.1)


class TestEvidenceFlag:
    def test_eventually_true_uniform(self):
        e = BarronEngine(truth=UniformDensity())
        data = RandomStream(1, 0).uniform_open(2000)
        flags = []
        for i, x in enumerate(data, 1):
            e.add_point(float(x))
            if i in (200, 500, 1000, 2000):
                flags.append(evidence_lower_flag(e, tau=0.1))
        assert all(flags)


class TestEvaluateDiagnostics:
    def test_full_record(self):
        e = uniform_engine(60)
        settings = DiagnosticSettings()
        row, errors = evaluate_diagnostics(e, barron_statistics(settings))
        assert row["n"] == 60.0
        assert errors == []
        assert all(not math.isnan(v) for v in row.values())
        assert row["mass_f0.lower"] <= row["mass_f0.upper"]
        assert row["mass_fstep.lower"] <= row["mass_fstep.upper"]
        for band in settings.bands:
            assert f"band_mass_{band.key()}.lower" in row
        assert [c for c in row if c.startswith("beta_bound_mass_")] == [
            f"beta_bound_mass_{LN2:g}.lower", f"beta_bound_mass_{LN2:g}.upper"]
        assert row["evidence_flag"] in (0.0, 1.0)
        assert 0.0 <= row["hellinger_mass_0.5.upper"] <= 1.0
        assert "mean_inv_level.lower" in row

    def test_evidence_flag_is_the_flag_function(self):
        e = uniform_engine(200)
        for tau in (0.01, 0.1):
            row, _ = evaluate_diagnostics(e, barron_statistics(DiagnosticSettings(tau=tau)))
            assert row["evidence_flag"] == float(evidence_lower_flag(e, tau))

    def test_failed_statistic_is_nan_in_its_columns(self, monkeypatch):
        # one gap rule for both models: the failed statistic's columns are
        # NaN, its error is recorded, and every other column keeps its value
        import posterior_lab.diagnostics as diagnostics
        from posterior_lab.cosine import CosineEngine, CosinePriorConfig

        def failing_on(real, bad):
            def failing(engine, arg, *rest):
                if arg == bad:
                    raise QuadratureError("synthetic failure", 0.0, math.inf, 0)
                return real(engine, arg, *rest)
            return failing

        settings = DiagnosticSettings()
        barron_case = (uniform_engine(60), barron_statistics(settings),
                       diagnostics, "band_posterior_mass", BandSpec(0.6, 0.75),
                       "band_mass[0.6_0.75]", "band_mass_0.6_0.75")
        cosine_case = (CosineEngine(CosinePriorConfig(),
                                    RandomStream(1, 0).uniform_open(60)),
                       cosine_statistics(settings, ((5.0, math.inf), (1.0, 3.0))),
                       CosineEngine, "region_mass", 5.0,
                       "region_mass_5_inf", "region_mass_5_inf")
        for engine, stats, owner, attr, bad, name, stem in (barron_case, cosine_case):
            want, errors = evaluate_diagnostics(engine, stats)
            assert errors == []
            with monkeypatch.context() as m:
                m.setattr(owner, attr, failing_on(getattr(owner, attr), bad))
                row, errors = evaluate_diagnostics(engine, stats)
            assert list(row) == list(want)
            assert errors == [f"{name}: synthetic failure"]
            nan_cols = [c for c, v in row.items() if math.isnan(v)]
            assert nan_cols == [f"{stem}.lower", f"{stem}.upper"]
            assert all(row[c] == want[c] for c in want if c not in nan_cols)

    def test_an_error_raised_again_is_recorded_once(self):
        # an engine that keeps its first failure raises the same exception
        # for the rest of the row: its columns are all NaN, one error names
        # the statistic that failed first
        failure = QuadratureError("kept failure", 0.0, math.inf, 0)

        def fail(engine):
            raise failure

        def fresh(engine):
            raise QuadratureError("another failure", 0.0, math.inf, 0)

        stats = [("a", ["a"], fail), ("b", ["b.lower", "b.upper"], fail),
                 ("c", ["c"], fresh), ("d", ["d"], fail)]
        row, errors = evaluate_diagnostics(uniform_engine(3), stats)
        assert list(row) == ["n", "a", "b.lower", "b.upper", "c", "d"]
        assert all(math.isnan(v) for c, v in row.items() if c != "n")
        assert errors == ["a: kept failure", "c: another failure", "d: kept failure"]


class TestTrajectoryScans:
    def _toy_trajectory(self):
        from posterior_lab.harness import RunConfig, TruthSpec, run_trajectory
        cfg = RunConfig(truth=TruthSpec("uniform"), n_max=120)
        return run_trajectory(cfg, 1)

    def test_excursions(self):
        from posterior_lab.diagnostics import excursion_count
        traj = self._toy_trajectory()
        assert excursion_count(traj, "gamma_stat", 0.9) >= 1
        assert excursion_count(traj, "beta_bound_mass_0.693147", 0.5) == 0
        with pytest.raises(ValueError):
            excursion_count(traj, "no_such_stat", 0.5)


class TestRecordInvariants:
    def test_gamma_plus_band_complement_at_most_one(self):
        # the exact-level set and a band excluding ln2 are disjoint, so
        # their posterior masses sum to at most 1 at every grid point
        from posterior_lab.harness import RunConfig, TruthSpec, run_trajectory
        cfg = RunConfig(truth=TruthSpec("uniform"), n_max=150)
        traj = run_trajectory(cfg, 5)
        gs = dict(traj.bracket_series("gamma_stat"))
        off = dict(traj.bracket_series("band_mass_0.2_0.4"))
        for n in gs:
            assert gs[n].lower + off[n].lower <= 1.0 + 1e-9
            assert 0.0 <= gs[n].lower and gs[n].upper <= 1.0
            assert 0.0 <= off[n].lower and off[n].upper <= 1.0

    def test_positive_band_tilt_part_against_direct_quadrature(self):
        # the tilt part of the band (0+, inf) equals the posterior mass of
        # {theta : -theta + sqrt(2 theta) W_n > 0} = {0 < theta < 2 W_n^2}
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 20:
            n = int(rng.integers(3, 60))
            e = BarronEngine(truth=UniformDensity())
            e.add_points(rng.uniform(0.001, 0.999, n))
            w = e.w_n
            if w <= 1e-4:
                continue
            checked += 1
            tiny = 1e-12
            # beta = 1e6 is (0+, inf) in effect: p(u) never exceeds 1 here
            bm = band_posterior_mass(e, BandSpec(tiny, 1e6))
            f0, fs = e.posterior_split()
            step_part = fs.midpoint()  # realized level ln2 lies in the band
            direct = e.posterior_theta().interval_mass(0.0, min(1.0, 2 * w * w))
            want = step_part + direct.midpoint() * f0.midpoint()
            assert bm.midpoint() == pytest.approx(want, abs=1e-8)

    def test_tilt_truth_gamma_never_excursions(self):
        from posterior_lab.harness import RunConfig, TruthSpec, run_trajectory
        from posterior_lab.diagnostics import excursion_count
        cfg = RunConfig(truth=TruthSpec("gauss_exp", theta=0.5), n_max=150)
        traj = run_trajectory(cfg, 2)
        # every excursion above 0.5 comes at n <= 100
        early = sum(1 for n, br in traj.bracket_series("gamma_stat")
                    if n <= 100 and br is not None and br.lower > 0.5)
        assert excursion_count(traj, "gamma_stat", 0.5) == early
        assert excursion_count(traj, "gamma_stat", 0.99) == 0
