import math

import numpy as np
import pytest

from privmap import carmodel, simulate
from privmap.carmodel import McmcConfig
from privmap.errors import ModelError, SimulationError
from privmap.geo import build_synthetic_geography
from privmap.simulate import (
    DEFAULT_HAZARDS,
    DgpConfig,
    bias,
    generate_dataset,
    mape,
    run_study,
    synth_deaths,
    synth_population,
    synth_poverty,
    upward_fraction,
)
from privmap.standardize import ExpectedCounts, expected_counts, rates_from_cubes
from privmap.tabulation import AgeSchema, default_age_schema, default_group_schema


def make_world(n=36, branching=(6, 6), seed=5, pop_scale=174.0, sigma=0.7):
    h, adj = build_synthetic_geography(n, list(branching), "grid", seed=seed)
    ages, groups = default_age_schema(), default_group_schema()
    pop = synth_population(
        h, ages, groups, minority_ratio=12.0, pop_scale=pop_scale, minority_sigma=sigma, seed=seed
    )
    deaths = synth_deaths(pop, seed=seed)
    rates = rates_from_cubes(deaths, pop, True)
    truth = expected_counts(pop, rates, "truth")
    pov = synth_poverty(n, seed=seed)
    return h, adj, truth, pov


# ---------------------------------------------------------------------------
# data generating process


def test_generate_dataset_deterministic():
    _, adj, truth, pov = make_world()
    dgp = DgpConfig(n_reps=2, master_seed=11)
    d1 = generate_dataset(dgp, truth, pov, adj, 1)
    d2 = generate_dataset(dgp, truth, pov, adj, 1)
    assert np.array_equal(d1.y, d2.y)
    assert np.array_equal(d1.theta, d2.theta)
    d3 = generate_dataset(dgp, truth, pov, adj, 0)
    assert not np.array_equal(d1.y, d3.y)


def test_generate_dataset_zero_truth_cells_flagged():
    _, adj, truth, pov = make_world()
    vals = truth.values.copy()
    vals[2, 1] = 0.0
    truth0 = ExpectedCounts(truth.unit_ids, truth.groups, vals, "truth")
    dgp = DgpConfig(master_seed=3)
    data = generate_dataset(dgp, truth0, pov, adj, 0)
    assert data.y[2, 1] == 0
    assert data.lam[2, 1] == 0.0


def test_generate_dataset_unit_rate_when_effects_off():
    # beta = 0 with degenerate random effects: counts average the offsets
    _, adj, truth, pov = make_world(n=100, branching=(10, 10), pop_scale=3000.0, sigma=0.35)
    dgp = DgpConfig(beta=(0.0, 0.0, 0.0), rho=0.0, car_scale=1e-12, phi_var=1e-12, master_seed=6)
    ratios = []
    for k in range(60):
        data = generate_dataset(dgp, truth, pov, adj, k)
        mask = truth.values > 0
        ratios.extend((data.y[mask] / truth.values[mask]).ravel())
    assert len(ratios) >= 10_000
    assert np.mean(ratios) == pytest.approx(1.0, abs=0.02)


def test_generate_dataset_beta_length_check():
    _, adj, truth, pov = make_world()
    with pytest.raises(SimulationError):
        generate_dataset(DgpConfig(beta=(0.0, 0.4)), truth, pov, adj, 0)


def test_generate_dataset_rejects_constant_covariate():
    # the generating process scales the covariate as the model does, and
    # fails as build_spec does rather than dividing by a zero SD
    _, adj, truth, _ = make_world(n=24, branching=(4, 6))
    with pytest.raises(ModelError, match="covariate is constant; cannot scale"):
        generate_dataset(DgpConfig(), truth, np.full(24, 0.3), adj, 0)
    with pytest.raises(ModelError, match="covariate is constant; cannot scale"):
        carmodel.build_spec(truth, np.full(24, 0.3), adj)


def test_dgp_config_validation():
    for car_scale in (0.0, -1.0):
        with pytest.raises(SimulationError, match="CAR scale"):
            DgpConfig(car_scale=car_scale)
    with pytest.raises(SimulationError):
        DgpConfig(phi_var=0.0)
    with pytest.raises(SimulationError):
        DgpConfig(n_reps=0)
    with pytest.raises(SimulationError):
        DgpConfig(rho=1.0)


# ---------------------------------------------------------------------------
# replicate metrics (the aggregation formulas, against hand values)


def test_mape_zero_when_exact():
    est = np.ones((5, 3, 2))
    assert np.all(mape(est, est) == 0)


def test_mape_single_replicate_hand_value():
    assert mape(np.array([[1.2]]), np.array([[1.0]]))[0] == pytest.approx(0.2)


def test_mape_vs_bias_distinguished():
    est = np.array([[0.8], [1.2]])
    tru = np.array([[1.0], [1.0]])
    assert mape(est, tru)[0] == pytest.approx(0.2)
    assert bias(est, tru)[0] == pytest.approx(0.0, abs=1e-15)


def test_bias_trivials():
    est = np.array([[1.0], [1.0]])
    assert bias(est, est)[0] == 0.0
    assert bias(est + 0.1, est)[0] == pytest.approx(0.1)


def test_mape_excludes_zero_truth_cells():
    est = np.array([[1.0, 2.0]])
    tru = np.array([[0.0, 4.0]])
    out = mape(est, tru)
    assert np.isnan(out[0])
    assert out[1] == pytest.approx(0.5)


def test_metric_definitions_match_direct_recomputation():
    r = np.random.default_rng(3)
    est = r.uniform(0.5, 2.0, (100, 40))
    tru = r.uniform(0.5, 2.0, (100, 40))
    m = mape(est, tru)
    b = bias(est, tru)
    m_direct = np.zeros(40)
    b_direct = np.zeros(40)
    for j in range(40):
        m_direct[j] = np.mean([abs((est[k, j] - tru[k, j]) / tru[k, j]) for k in range(100)])
        b_direct[j] = np.mean([est[k, j] - tru[k, j] for k in range(100)])
    assert np.max(np.abs(m - m_direct)) <= 1e-12
    assert np.max(np.abs(b - b_direct)) <= 1e-12


def test_upward_fraction_rules():
    groups = ("a", "b")
    b = np.array([[-1.0, 0.5], [-0.2, 0.1], [-0.3, 0.0]])
    out = upward_fraction(b, groups)
    assert out["a"] == 0.0
    assert out["b"] == pytest.approx(100 * 2 / 3)  # exact zero is not upward
    with_nan = np.array([[np.nan, 1.0], [1.0, -1.0]])
    out2 = upward_fraction(with_nan, groups)
    assert out2["a"] == pytest.approx(100.0)
    assert out2["b"] == pytest.approx(50.0)
    # a group with no cell in the metric base has no share
    assert math.isnan(upward_fraction(np.array([[np.nan, 1.0], [np.nan, 0.0]]), groups)["a"])


# ---------------------------------------------------------------------------
# the study loop


@pytest.fixture(scope="module")
def small_study():
    h, adj, truth, pov = make_world(n=36, branching=(6, 6), seed=8)
    shifted = ExpectedCounts(truth.unit_ids, truth.groups, truth.values * 0.9, "v19")
    dgp = DgpConfig(n_reps=3, master_seed=4)
    mcmc = McmcConfig(600, 300, 3, seed=0)
    report = run_study(dgp, [truth, shifted], pov, adj, mcmc, jobs=1)
    return report, truth


def test_run_study_report_shape(small_study):
    report, truth = small_study
    assert report.sources == ["truth", "v19"]
    assert report.coef_names == ["intercept", "group:Black", "covariate"]
    assert report.coef_estimates["truth"].shape == (3, 3)
    assert report.smr_bias["v19"].shape == truth.values.shape
    assert set(report.group_bias["truth"]) == {"NHW", "Black"}
    assert len(report.convergence["truth"]) == 3
    assert report.under_pct["truth"]["Black"] == 0.0
    assert report.zero_pct["v19"]["NHW"] == 0.0


def test_run_study_uniform_denominator_scaling_unbiases_nothing(small_study):
    # a uniformly 10% deflated source must show uniformly inflated ratios
    report, _ = small_study
    assert report.under_pct["v19"]["Black"] == pytest.approx(100.0)
    assert report.group_bias["v19"]["Black"] > report.group_bias["truth"]["Black"]


def test_run_study_tables_render(small_study):
    report, truth = small_study
    tables = report.tables()
    assert set(tables) == {"coef_bias", "smr_bias", "smr_mape", "fractions", "replicates"}
    assert len(tables["coef_bias"]) == 2 * 3
    assert len(tables["smr_bias"]) == 2 * truth.values.size
    assert len(tables["fractions"]) == 2 * 2
    assert len(tables["replicates"]) == 2 * 3 * 3
    row = tables["fractions"][0]
    assert {"source", "group", "mean_smr_bias", "upward_bias_pct"} <= set(row)


def test_run_study_requires_truth_tag():
    h, adj, truth, pov = make_world()
    other = ExpectedCounts(truth.unit_ids, truth.groups, truth.values, "v19")
    with pytest.raises(SimulationError, match="truth"):
        run_study(DgpConfig(n_reps=1), [other], pov, adj, McmcConfig(200, 100, 1, 0))


def test_run_study_rejects_misaligned_sources():
    h, adj, truth, pov = make_world()
    bad = ExpectedCounts(
        list(reversed(truth.unit_ids)), truth.groups, truth.values, "v19"
    )
    with pytest.raises(SimulationError, match="aligned"):
        run_study(DgpConfig(n_reps=1), [truth, bad], pov, adj, McmcConfig(200, 100, 1, 0))


def test_run_study_builds_one_car_plan(monkeypatch):
    # three sources x two replicates share one plan (one log-det node grid)
    _, adj, truth, pov = make_world(n=16, branching=(4, 4), seed=9)
    sources = [truth] + [
        ExpectedCounts(truth.unit_ids, truth.groups, c * truth.values, tag)
        for c, tag in ((0.9, "low"), (1.1, "high"))
    ]
    calls = []
    init = carmodel.CarPlan.__init__

    def counting_init(self, adjacency):
        calls.append(adjacency.n)
        init(self, adjacency)

    monkeypatch.setattr(carmodel.CarPlan, "__init__", counting_init)
    report = run_study(DgpConfig(n_reps=2, master_seed=5), sources, pov, adj, McmcConfig(200, 100, 1, 0))
    assert sum(map(len, report.coef_estimates.values())) == 6
    assert calls == [16]


def test_run_study_parallel_matches_serial():
    h, adj, truth, pov = make_world(n=16, branching=(4, 4), seed=9)
    dgp = DgpConfig(n_reps=2, master_seed=5)
    mcmc = McmcConfig(500, 200, 3, seed=0)
    serial = run_study(dgp, [truth], pov, adj, mcmc, jobs=1)
    parallel = run_study(dgp, [truth], pov, adj, mcmc, jobs=2)
    assert np.array_equal(serial.coef_estimates["truth"], parallel.coef_estimates["truth"])
    b_s = serial.smr_bias["truth"]
    b_p = parallel.smr_bias["truth"]
    assert np.array_equal(np.isnan(b_s), np.isnan(b_p))
    assert np.allclose(b_s[~np.isnan(b_s)], b_p[~np.isnan(b_p)])


# ---------------------------------------------------------------------------
# synthetic inputs


@pytest.mark.xfail(
    strict=True,
    reason="SeedSequence pads a key shorter than its pool with zeros, so replicate k's data stream "
    "[seed, k, _STREAM_DGP] is [seed, k]: replicates 10-12 reuse the synth streams. Mending it moves "
    "every study pin, so it waits for a change that moves RNG streams anyway",
)
def test_replicate_streams_share_no_key_with_the_synth_streams():
    def state(key):
        return tuple(np.random.SeedSequence(key).generate_state(4))

    seed = 7  # the CLI and the acceptance fixture use one seed for synthesis and the study
    synth = {state([seed, tag]) for tag in (simulate._STREAM_POP, simulate._STREAM_DEATHS, simulate._STREAM_COV)}
    replicates = {state([seed, k, simulate._STREAM_DGP]) for k in range(50)}
    assert not synth & replicates


def test_synth_population_scales():
    h, _ = build_synthetic_geography(100, [10, 10], "grid", seed=2)
    ages, groups = default_age_schema(), default_group_schema()
    pop = synth_population(h, ages, groups, minority_ratio=12.0, pop_scale=300.0, seed=2)
    per_unit = pop.values.sum(axis=1)
    assert per_unit[:, 0].mean() == pytest.approx(300.0, rel=0.2)
    assert per_unit[:, 1].mean() == pytest.approx(25.0, rel=0.5)
    assert np.array_equal(pop.values, np.round(pop.values))


def test_synth_deaths_bounded_by_population():
    h, _ = build_synthetic_geography(30, [5, 6], "grid", seed=3)
    ages, groups = default_age_schema(), default_group_schema()
    pop = synth_population(h, ages, groups, seed=3)
    deaths = synth_deaths(pop, seed=3)
    assert np.all(deaths.values <= pop.values)
    assert np.all(deaths.values >= 0)
    with pytest.raises(SimulationError):
        synth_deaths(pop, hazards=(0.5, 0.5))
    with pytest.raises(SimulationError):
        synth_deaths(pop, hazards=tuple([1.5] * 7))


def test_synth_deaths_default_schedule_fits_the_age_bands():
    # with no hazards given, the default schedule is resampled onto the
    # cube's bands, as synth_population adapts its default age weights
    h, _ = build_synthetic_geography(30, [5, 6], "grid", seed=3)
    pop = synth_population(h, AgeSchema(("0-19", "20-44", "45-64")), default_group_schema(), seed=3)
    hazards = np.interp(np.linspace(0, 1, 3), np.linspace(0, 1, len(DEFAULT_HAZARDS)), DEFAULT_HAZARDS)
    expected = synth_deaths(pop, hazards=hazards, seed=3)
    assert np.array_equal(synth_deaths(pop, seed=3).values, expected.values)


def test_synth_poverty_range():
    pov = synth_poverty(500, seed=1)
    assert np.all((pov > 0) & (pov < 1))
    assert 0.05 < pov.mean() < 0.4
