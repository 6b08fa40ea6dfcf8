import hashlib
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from privmap.carmodel import (
    LOG_DET_SPAN,
    CarPlan,
    McmcConfig,
    PosteriorDraws,
    build_spec,
    car_conditional,
    fit,
    geweke_z,
    greedy_coloring,
    mrr_summary,
    predict_counts,
    sample_car_prior,
    write_draws,
)
from privmap.errors import ModelError
from privmap.geo import Adjacency, build_synthetic_geography
from privmap.standardize import ExpectedCounts


def rng(seed=0):
    return np.random.default_rng(seed)


def path_adjacency(n=2):
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return Adjacency([f"u{i}" for i in range(n)], w)


# ---------------------------------------------------------------------------
# CAR prior sampling


def test_car_prior_rho_zero_independent():
    _, adj = build_synthetic_geography(9, [3, 3], "grid", seed=1)
    draws = sample_car_prior(adj, 0.0, 2.0, rng(1), size=100_000)
    cov = np.cov(draws.T)
    expected = np.diag(2.0 / adj.row_sums)
    assert np.abs(np.diag(cov) - np.diag(expected)).max() < 0.03
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 0.02


def test_car_prior_two_node_hand_inverse():
    # precision [[1,-0.2],[-0.2,1]]; inverse is [[1,.2],[.2,1]]/0.96,
    # so Var(theta_1) = 1/0.96
    adj = path_adjacency(2)
    draws = sample_car_prior(adj, 0.2, 1.0, rng(2), size=400_000)
    assert draws.shape == (400_000, 2)
    v1 = draws[:, 0].var()
    assert v1 == pytest.approx(1.0416667, rel=0.02)
    c = np.cov(draws.T)[0, 1]
    assert c == pytest.approx(0.2 / 0.96, rel=0.05)


def test_car_prior_grid_covariance_matches_dense_inverse():
    _, adj = build_synthetic_geography(9, [3, 3], "grid", seed=1)
    rho, scale = 0.2, 1.0
    q = (np.diag(adj.row_sums) - rho * adj.weights.toarray()) / scale
    target = np.linalg.inv(q)
    draws = sample_car_prior(adj, rho, scale, rng(3), size=100_000)
    cov = np.cov(draws.T)
    scale_ref = np.sqrt(np.outer(np.diag(target), np.diag(target)))
    assert np.abs((cov - target) / scale_ref).max() < 0.03


def test_car_prior_rejects_bad_params():
    adj = path_adjacency(3)
    with pytest.raises(ModelError):
        sample_car_prior(adj, 1.0, 1.0, rng(0))
    with pytest.raises(ModelError):
        sample_car_prior(adj, 0.5, 0.0, rng(0))
    # an island has no neighbors, so its precision row is zero: singular
    island = np.zeros((4, 4))
    island[[0, 1, 1, 2], [1, 0, 2, 1]] = 1.0
    with pytest.raises(ModelError, match="CAR precision not positive definite"):
        sample_car_prior(Adjacency([f"u{i}" for i in range(4)], island), 0.5, 1.0, rng(0))


def test_car_conditional_formula():
    _, adj = build_synthetic_geography(9, [3, 3], "grid", seed=1)
    theta = rng(4).normal(0, 1, 9)
    mean, var = car_conditional(theta, CarPlan(adj), 0.3, 1.7)
    for i in range(9):
        nbrs = np.flatnonzero(adj.weights.toarray()[i] > 0)
        assert mean[i] == pytest.approx(0.3 * theta[nbrs].sum() / len(nbrs), abs=1e-12)
        assert var[i] == pytest.approx(1.7 / len(nbrs), abs=1e-12)


def test_greedy_coloring_proper():
    _, adj = build_synthetic_geography(30, [5, 6], "grid", seed=2)
    colors = greedy_coloring(adj.weights)
    for i in range(30):
        for k in np.flatnonzero(adj.weights.toarray()[i] > 0):
            assert colors[i] != colors[k]


def dense_greedy_coloring(weights: np.ndarray) -> np.ndarray:
    """Reference: the coloring as computed on the dense weight matrix."""
    n = weights.shape[0]
    colors = np.full(n, -1, dtype=int)
    for i in range(n):
        used = {colors[k] for k in np.flatnonzero(weights[i] > 0) if colors[k] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    return colors


def test_sparse_coloring_matches_dense_reference(oracle_adjacency):
    colors = greedy_coloring(oracle_adjacency.weights)
    assert colors.dtype == int
    assert np.array_equal(colors, dense_greedy_coloring(oracle_adjacency.weights.toarray()))


def test_car_plan_and_prior_match_dense_reference():
    # the dense formulas the plan and the prior draw are defined by: the
    # log-det through the eigenvalues of D^-1/2 W D^-1/2 (Ord 1975), and a
    # draw x = S z whose map S whitens the precision, S' Q S = I
    for layout, n, branching in (("grid", 300, [2, 3, 5, 10]), ("random-planar", 3000, [3, 10, 10, 10])):
        _, adj = build_synthetic_geography(n, branching, layout, seed=11)
        w = adj.weights.toarray()
        deg = w.sum(axis=1)
        plan = CarPlan(adj)
        assert plan.weights is adj.weights
        d_isqrt = 1.0 / np.sqrt(deg)
        eigs = scipy.linalg.eigh(d_isqrt[:, None] * w * d_isqrt[None, :], eigvals_only=True)
        # the series over [0, 0.99] and close to 1, and one rho past its span
        rhos = [*np.linspace(0.0, 0.99, 100), *(1 - np.logspace(-2.2, -6, 9)), -math.expm1(-LOG_DET_SPAN - 1)]
        for rho in rhos:
            expected = np.sum(np.log(deg)) + np.sum(np.log1p(-rho * eigs))
            assert plan.log_det(rho) == pytest.approx(expected, rel=1e-10, abs=0), (layout, rho)
    _, adj = build_synthetic_geography(300, [2, 3, 5, 10], "grid", seed=11)
    q = (np.diag(adj.row_sums) - 0.3 * adj.weights.toarray()) / 1.7
    x = sample_car_prior(adj, 0.3, 1.7, rng(5), size=300).T
    z = rng(5).standard_normal((300, 300))
    assert np.abs(x.T @ q @ x - z.T @ z).max() <= 1e-10 * np.abs(z.T @ z).max()


# ---------------------------------------------------------------------------
# spec construction


def make_expected(n_units, groups=("NHW", "Black"), seed=0, low=1.0, high=8.0):
    r = rng(seed)
    vals = r.uniform(low, high, (n_units, len(groups)))
    return ExpectedCounts([f"u{i}" for i in range(n_units)], tuple(groups), vals, "truth")


def test_build_spec_columns_and_scaling():
    _, adj = build_synthetic_geography(9, [3, 3], "grid", seed=1)
    ec = make_expected(9)
    ec.unit_ids = list(adj.leaf_ids)
    cov = rng(1).uniform(0, 1, 9)
    spec = build_spec(ec, cov, adj)
    assert spec.colnames == ["intercept", "group:Black", "covariate"]
    col = spec.x[:, 2]
    scaled = (cov - cov.mean()) / cov.std()
    assert col == pytest.approx(scaled[spec.unit_idx])
    assert spec.covariate_scaling["mean"] == pytest.approx(cov.mean())


def test_build_spec_excludes_zero_cells():
    _, adj = build_synthetic_geography(4, [2, 2], "grid", seed=1)
    vals = np.array([[2.0, 0.0], [3.0, 1.0], [4.0, 2.0], [5.0, 0.5]])
    ec = ExpectedCounts(list(adj.leaf_ids), ("a", "b"), vals, "truth")
    spec = build_spec(ec, None, adj)
    assert spec.excluded == [(adj.leaf_ids[0], "b")]
    assert spec.n_strata == 7
    floored = build_spec(ec, None, adj, zero_policy="floor")
    assert floored.n_strata == 8
    assert floored.offset.min() == pytest.approx(np.log(1e-6))


# ---------------------------------------------------------------------------
# the sampler against independent oracles


def test_fit_null_data_recovers_zero_intercept():
    _, adj = build_synthetic_geography(36, [6, 6], "grid", seed=1)
    r = rng(5)
    p_vals = r.uniform(30, 70, (36, 1))
    ec = ExpectedCounts(list(adj.leaf_ids), ("pop",), p_vals, "truth")
    spec = build_spec(ec, None, adj, fix_tau2=1e-6, fix_sigma2=1e-6)
    y = np.round(p_vals[:, 0])
    oracle = np.log(y.sum() / p_vals.sum())  # Poisson MLE for a lone intercept
    assert abs(oracle) < 0.002
    draws = fit(y, spec, McmcConfig(2000, 1000, 2, seed=3))
    b0 = draws.beta[:, 0].mean()
    assert abs(b0) < 0.03
    assert abs(b0 - oracle) < 0.03


def irls_poisson(x, y, offset, iters=60):
    """Independent iteratively-reweighted least-squares Poisson fit."""
    beta = np.zeros(x.shape[1])
    for _ in range(iters):
        eta = x @ beta + offset
        mu = np.exp(eta)
        w = mu
        z = eta - offset + (y - mu) / mu
        xtw = x.T * w
        beta_new = np.linalg.solve(xtw @ x, xtw @ z)
        if np.max(np.abs(beta_new - beta)) < 1e-12:
            beta = beta_new
            break
        beta = beta_new
    cov = np.linalg.inv((x.T * np.exp(x @ beta + offset)) @ x)
    return beta, cov


@pytest.fixture(scope="module")
def glm_fit():
    # 500 strata, no random effects: the posterior should sit on the MLE
    n = 250
    r = rng(11)
    p_vals = r.uniform(5, 50, (n, 2))
    ec = ExpectedCounts([f"u{i}" for i in range(n)], ("a", "b"), p_vals, "truth")
    cov = r.uniform(0, 1, n)
    spec = build_spec(ec, cov, None, include_spatial=False, include_overdispersion=False)
    beta_true = np.array([0.0, 0.4, 0.01])
    lam = np.exp(spec.x @ beta_true + spec.offset)
    y = r.poisson(lam)
    draws = fit(y, spec, McmcConfig(4000, 2000, 2, seed=7))
    mle, mle_cov = irls_poisson(spec.x, y, spec.offset)
    return draws, mle, mle_cov, spec, y


def test_fit_glm_reduction_matches_irls(glm_fit):
    draws, mle, _, _, _ = glm_fit
    post_mean = draws.beta.mean(axis=0)
    post_sd = draws.beta.std(axis=0, ddof=1)
    assert np.all(np.abs(post_mean - mle) <= 3 * post_sd)


def test_fit_glm_posterior_sd_comparable_to_mle(glm_fit):
    draws, _, mle_cov, _, _ = glm_fit
    post_sd = draws.beta.std(axis=0, ddof=1)
    mle_sd = np.sqrt(np.diag(mle_cov))
    assert np.all(post_sd < 3 * mle_sd)
    assert np.all(post_sd > mle_sd / 3)


def test_posterior_contraction_with_more_data():
    def sd_at(n, seed):
        r = rng(seed)
        p_vals = r.uniform(5, 50, (n, 2))
        ec = ExpectedCounts([f"u{i}" for i in range(n)], ("a", "b"), p_vals, "truth")
        spec = build_spec(ec, None, None, include_spatial=False, include_overdispersion=False)
        lam = np.exp(spec.x @ np.array([0.0, 0.4]) + spec.offset)
        y = r.poisson(lam)
        draws = fit(y, spec, McmcConfig(2400, 1200, 2, seed=1))
        return draws.beta[:, 1].std(ddof=1)

    assert sd_at(250, 3) > sd_at(1250, 3)


def test_fit_flat_likelihood_recovers_prior():
    # offsets of 1e-8 with zero counts make the likelihood flat, so the chain
    # must sample the prior: rho ~ Uniform(0, 1) with mean 0.5, and tau2 and
    # sigma2 ~ IG(3, 1) with median 0.374. Over seeds 1-13 the rho mean had a
    # Monte Carlo sd of 0.008 and each median 0.006-0.008 (2%), so these
    # bounds fail any kernel that moves the rho mean by 0.055 or a median by
    # 15% (bound plus 3 sd). Recentering theta into the intercept after each
    # sweep gave a rho mean of 0.40 and a tau2 median of 0.30.
    _, adj = build_synthetic_geography(16, [4, 4], "grid", seed=1)
    ec = ExpectedCounts(list(adj.leaf_ids), ("pop",), np.full((16, 1), 1e-8), "truth")
    spec = build_spec(ec, None, adj, prior_beta_var=1.0, prior_ig_shape=3.0, prior_ig_scale=1.0)
    draws = fit(np.zeros(16), spec, McmcConfig(30_000, 2000, 10, seed=1))
    ig_median = 1 / scipy.stats.gamma.ppf(0.5, 3.0)
    assert abs(draws.rho.mean() - 0.5) < 0.03
    assert abs(np.median(draws.tau2) / ig_median - 1) < 0.08
    assert abs(np.median(draws.sigma2) / ig_median - 1) < 0.08


def test_fit_reproducible_bit_exact():
    _, adj = build_synthetic_geography(9, [3, 3], "grid", seed=1)
    ec = make_expected(9, seed=2)
    ec.unit_ids = list(adj.leaf_ids)
    r = rng(3)
    y = r.poisson(ec.values.reshape(-1))
    spec = build_spec(ec, None, adj)
    d1 = fit(spec.flatten(y.reshape(9, 2)), spec, McmcConfig(600, 300, 2, seed=9))
    # a plan shared with another source's spec, as a study shares it, after
    # that spec has been fitted
    shared = CarPlan(adj)
    other = build_spec(ExpectedCounts(ec.unit_ids, ec.groups, 2 * ec.values, "other"), None, shared)
    fit(other.flatten(y.reshape(9, 2)), other, McmcConfig(600, 300, 2, seed=4))
    on_shared = build_spec(ec, None, shared)
    assert on_shared.plan is shared
    for spec2 in (spec, on_shared):
        d2 = fit(spec2.flatten(y.reshape(9, 2)), spec2, McmcConfig(600, 300, 2, seed=9))
        for field in ("beta", "theta", "phi", "tau2", "sigma2", "rho"):
            assert np.array_equal(getattr(d1, field), getattr(d2, field))


def test_fit_draws_and_acceptance_pinned(tmp_path):
    # sha256 of the draws file and the per-block acceptance rates of a seeded
    # toy fit, pinned to the kernel with the exact intercept and coefficient
    # shift draws and the proposals sized from the conditional precisions: a
    # change to any move or to the order of its draws fails it
    _, adj = build_synthetic_geography(16, [4, 4], "grid", seed=1)
    r = rng(4)
    ec = ExpectedCounts(list(adj.leaf_ids), ("NHW", "Black"), r.uniform(1.0, 8.0, (16, 2)), "truth")
    spec = build_spec(ec, r.uniform(0, 1, 16), adj)
    draws = fit(spec.flatten(r.poisson(ec.values)), spec, McmcConfig(400, 200, 2, seed=21))
    write_draws(draws, tmp_path / "draws.csv")
    digest = hashlib.sha256((tmp_path / "draws.csv").read_bytes()).hexdigest()
    assert digest == "8eb3dcb010ede5640e5351db26a7a71bf34b5fe5970c00fa6e3fb2fc241b86a1"
    assert draws.accept_rates == {
        "beta": 0.2925,
        "theta": 0.428125,
        "phi": 0.4425,
        "rho": 0.8,
    }


def test_fit_acceptance_holds_at_large_counts():
    # expected counts of 1e4-8e4 per stratum shrink every conditional
    # posterior to an sd near 1/sqrt(count), far below any fixed starting
    # step: the proposals must follow that scale within one short burn-in
    _, adj = build_synthetic_geography(64, [8, 8], "grid", seed=1)
    r = rng(6)
    ec = ExpectedCounts(list(adj.leaf_ids), ("NHW", "Black"), r.uniform(1.0, 8.0, (64, 2)) * 1e4, "truth")
    spec = build_spec(ec, r.uniform(0, 1, 64), adj)
    draws = fit(spec.flatten(r.poisson(ec.values)), spec, McmcConfig(200, 100, 1, seed=3))
    for block in ("beta", "theta", "phi"):
        assert 0.15 <= draws.accept_rates[block] <= 0.7, (block, draws.accept_rates)


def test_offset_invariance():
    # scaling every expected count by c shifts the intercept by -log(c)
    # and leaves the group contrast alone, within Monte Carlo error
    _, adj = build_synthetic_geography(36, [6, 6], "grid", seed=2)
    r = rng(8)
    p_vals = r.uniform(10, 40, (36, 2))
    y = r.poisson(1.3 * p_vals)
    c = 3.0
    results = {}
    for tag, scale in (("base", 1.0), ("scaled", c)):
        ec = ExpectedCounts(list(adj.leaf_ids), ("a", "b"), p_vals * scale, "truth")
        spec = build_spec(ec, None, adj)
        draws = fit(spec.flatten(y), spec, McmcConfig(2400, 1200, 2, seed=21))
        results[tag] = draws
    b0_base = results["base"].beta[:, 0]
    b0_scaled = results["scaled"].beta[:, 0]
    pooled_sd = np.sqrt(b0_base.var(ddof=1) + b0_scaled.var(ddof=1))
    assert abs((b0_scaled.mean() - b0_base.mean()) + np.log(c)) <= 2 * pooled_sd
    b1_base = results["base"].beta[:, 1]
    b1_scaled = results["scaled"].beta[:, 1]
    pooled_sd1 = np.sqrt(b1_base.var(ddof=1) + b1_scaled.var(ddof=1))
    assert abs(b1_scaled.mean() - b1_base.mean()) <= 2 * pooled_sd1


def test_fit_input_validation():
    _, adj = build_synthetic_geography(4, [2, 2], "grid", seed=1)
    ec = make_expected(4, groups=("a",), seed=1)
    ec.unit_ids = list(adj.leaf_ids)
    spec = build_spec(ec, None, adj)
    with pytest.raises(ModelError):
        fit(np.array([1.0, 2.0]), spec)  # wrong length
    with pytest.raises(ModelError):
        fit(np.array([1.0, -2.0, 0.0, 1.0]), spec)
    with pytest.raises(ModelError):
        fit(np.array([1.5, 2.0, 0.0, 1.0]), spec)


@pytest.mark.parametrize(
    "edges",
    [[(0, 1), (1, 2)], [(0, 1), (2, 3)]],
    ids=["island", "two-components"],
)
def test_fit_rejects_disconnected_adjacency(edges):
    w = np.zeros((4, 4))
    for i, k in edges:
        w[i, k] = w[k, i] = 1.0
    adj = Adjacency([f"u{i}" for i in range(4)], w)
    ec = make_expected(4, groups=("a",), seed=1)
    spec = build_spec(ec, None, adj)
    with pytest.raises(ModelError, match="adjacency must be connected for the spatial prior"):
        fit(np.round(ec.values[:, 0]), spec, McmcConfig(200, 100, 1, seed=0))


def test_fit_divergent_initialization_reported():
    # all-zero counts with offsets so large the Poisson means overflow
    _, adj = build_synthetic_geography(4, [2, 2], "grid", seed=1)
    vals = np.full((4, 1), 1e308)
    ec = ExpectedCounts(list(adj.leaf_ids), ("a",), vals, "truth")
    spec = build_spec(ec, None, adj)
    with pytest.raises(ModelError, match="divergent"):
        fit(np.zeros(4), spec, McmcConfig(200, 100, 1, seed=0))


def test_mcmc_config_validation():
    with pytest.raises(ModelError):
        McmcConfig(100, 100, 1)
    with pytest.raises(ModelError):
        McmcConfig(100, 10, 0)
    # a negative burn-in would store more draws than the run makes
    with pytest.raises(ModelError, match="burn-in"):
        McmcConfig(10, -5, 1)
    with pytest.raises(ModelError, match="iterations must be"):
        McmcConfig(0, -1, 1)
    assert McmcConfig(2400, 1200, 4).n_stored == 300
    assert McmcConfig(1, 0, 1).n_stored == 1


# ---------------------------------------------------------------------------
# summaries and predictions


def make_draws(beta_chains, n_units=0, s_count=0):
    beta = np.column_stack(beta_chains)
    k = beta.shape[0]
    return PosteriorDraws(
        colnames=[f"b{j}" for j in range(beta.shape[1])],
        beta=beta,
        theta=np.zeros((k, n_units)),
        phi=np.zeros((k, s_count)),
        tau2=np.full(k, 0.5),
        sigma2=np.full(k, 0.25),
        rho=np.full(k, 0.2),
        mcmc=McmcConfig(2 * k, k, 1, 0),
        accept_rates={},
    )


def test_mrr_constant_chain():
    draws = make_draws([np.full(150, 0.4)])
    summary = mrr_summary(draws)
    m = summary.mrr["b0"]
    assert m["point"] == pytest.approx(np.exp(0.4), abs=1e-9)
    assert m["lower"] == pytest.approx(m["upper"], abs=1e-12)
    assert m["point"] == pytest.approx(1.4918, abs=1e-4)


def test_mrr_alternating_chain_direct_computation():
    chain = np.tile([0.0, 0.8], 60)
    draws = make_draws([chain])
    m = mrr_summary(draws).mrr["b0"]
    assert m["point"] == pytest.approx(np.exp(chain.mean()), abs=1e-12)
    assert m["lower"] == pytest.approx(np.exp(np.percentile(chain, 2.5)), abs=1e-9)
    assert m["upper"] == pytest.approx(np.exp(np.percentile(chain, 97.5)), abs=1e-9)


def test_mrr_interval_bounds_ordered_random_chains():
    r = rng(12)
    for _ in range(1000):
        chain = r.normal(r.normal(), abs(r.normal()) + 0.01, 120)
        m = mrr_summary(make_draws([chain])).mrr["b0"]
        assert m["lower"] <= m["point"] or m["lower"] <= m["upper"]
        assert m["lower"] <= m["upper"]


def test_mrr_requires_100_draws():
    with pytest.raises(ModelError):
        mrr_summary(make_draws([np.zeros(99)]))


def test_mrr_line_format():
    draws = make_draws([rng(1).normal(0.15, 0.05, 200)])
    summary = mrr_summary(draws)
    line = summary.mrr_line("b0")
    import re

    assert re.fullmatch(r"\d+\.\d{2} \(\d+\.\d{2},\d+\.\d{2}\)", line)


def test_geweke_constant_chain_is_zero():
    assert geweke_z(np.full(200, 1.3)) == 0.0


def degenerate_spec_and_draws(n=4, p_vals=None, beta0=0.0, k=1):
    _, adj = build_synthetic_geography(n, [2, 2], "grid", seed=1)
    if p_vals is None:
        p_vals = np.full((n, 1), 2.0)
    ec = ExpectedCounts(list(adj.leaf_ids), ("a",), p_vals, "truth")
    spec = build_spec(ec, None, adj)
    draws = PosteriorDraws(
        colnames=["intercept"],
        beta=np.full((k, 1), beta0),
        theta=np.zeros((k, n)),
        phi=np.zeros((k, spec.n_strata)),
        tau2=np.full(k, 1.0),
        sigma2=np.full(k, 1.0),
        rho=np.full(k, 0.0),
        mcmc=McmcConfig(2 * max(k, 1), max(k, 1), 1, 0),
        accept_rates={},
    )
    return spec, draws


def test_predict_degenerate_draw_gives_unit_smr():
    spec, draws = degenerate_spec_and_draws()
    est = predict_counts(draws, spec)
    assert est.yhat == pytest.approx(np.full((4, 1), 2.0))
    assert est.smr == pytest.approx(np.ones((4, 1)))


def test_predict_smr_ratio():
    spec, draws = degenerate_spec_and_draws(beta0=np.log(1.5))
    est = predict_counts(draws, spec)
    assert est.yhat[0, 0] == pytest.approx(3.0)
    assert est.smr[0, 0] == pytest.approx(1.5)


def test_predict_zero_denominator_reported_missing():
    _, adj = build_synthetic_geography(4, [2, 2], "grid", seed=1)
    vals = np.array([[2.0], [0.0], [3.0], [1.0]])
    ec = ExpectedCounts(list(adj.leaf_ids), ("a",), vals, "truth")
    spec = build_spec(ec, None, adj)
    draws = PosteriorDraws(
        colnames=["intercept"],
        beta=np.zeros((5, 1)),
        theta=np.zeros((5, 4)),
        phi=np.zeros((5, 3)),
        tau2=np.ones(5),
        sigma2=np.ones(5),
        rho=np.zeros(5),
        mcmc=McmcConfig(10, 5, 1, 0),
        accept_rates={},
    )
    est = predict_counts(draws, spec)
    assert np.isnan(est.smr[1, 0])
    assert (adj.leaf_ids[1], "a") in est.missing


def test_predict_posterior_mean_linearity():
    # predicted counts equal the direct average of per-draw Poisson means
    _, adj = build_synthetic_geography(9, [3, 3], "grid", seed=1)
    r = rng(33)
    ec = make_expected(9, seed=3)
    ec.unit_ids = list(adj.leaf_ids)
    spec = build_spec(ec, r.uniform(0, 1, 9), adj)
    k = 100
    draws = PosteriorDraws(
        colnames=spec.colnames,
        beta=r.normal(0, 0.2, (k, 3)),
        theta=r.normal(0, 0.3, (k, 9)),
        phi=r.normal(0, 0.3, (k, spec.n_strata)),
        tau2=np.ones(k),
        sigma2=np.ones(k),
        rho=np.full(k, 0.2),
        mcmc=McmcConfig(2 * k, k, 1, 0),
        accept_rates={},
    )
    est = predict_counts(draws, spec)
    direct = np.zeros(spec.n_strata)
    for it in range(k):
        eta = spec.x @ draws.beta[it] + draws.theta[it][spec.unit_idx] + draws.phi[it] + spec.offset
        direct += np.exp(eta)
    direct /= k
    assert est.yhat[spec.unit_idx, spec.group_idx] == pytest.approx(direct, rel=1e-12)


def test_write_draws_schema(tmp_path):
    _, adj = build_synthetic_geography(4, [2, 2], "grid", seed=1)
    ec = make_expected(4, groups=("a",), seed=1)
    ec.unit_ids = list(adj.leaf_ids)
    spec = build_spec(ec, None, adj)
    y = np.round(ec.values[:, 0])
    draws = fit(y, spec, McmcConfig(300, 100, 2, seed=2))
    path = tmp_path / "draws.csv"
    write_draws(draws, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[:2] == ["iteration", "beta:intercept"]
    assert len(lines) - 1 == draws.n_stored
