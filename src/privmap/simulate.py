"""Replicated simulation study: generate counts from the spatial Poisson
data-generating process, fit the model once per denominator source, and
aggregate bias/MAPE/fraction metrics against the stored truth.

The generating coefficients default to (0, 0.4, 0.01) for intercept, group
contrast and the area covariate; the spatial field uses dependence factor
0.2 with conditional variance 1/w_i+, and the unstructured effect has
variance 0.25.
"""

from __future__ import annotations

import functools
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .carmodel import (
    CarPlan,
    McmcConfig,
    ModelSpec,
    build_spec,
    fit,
    mrr_summary,
    predict_counts,
    sample_car_prior,
)
from .errors import SimulationError
from .geo import Adjacency, Hierarchy
from .standardize import ExpectedCounts, underestimation_fraction, zero_count_percent
from .tabulation import AgeSchema, GroupSchema, TabulationCube

# rng stream tags so the same master seed never reuses a stream
_STREAM_DGP = 0
_STREAM_FIT = 1000
_STREAM_POP = 10
_STREAM_DEATHS = 11
_STREAM_COV = 12


@dataclass(frozen=True)
class DgpConfig:
    """Generating parameters; defaults follow the simulation design."""

    beta: tuple[float, ...] = (0.0, 0.4, 0.01)
    rho: float = 0.2
    car_scale: float = 1.0
    phi_var: float = 0.25
    n_reps: int = 100
    master_seed: int = 0

    def __post_init__(self):
        if self.phi_var <= 0:
            raise SimulationError("phi variance must be positive")
        if self.n_reps < 1:
            raise SimulationError("need at least one replicate")
        if not (0.0 <= self.rho < 1.0):
            raise SimulationError(f"rho must lie in [0, 1), got {self.rho}")


@dataclass
class ReplicateData:
    k: int
    y: np.ndarray       # (n_units, n_groups) integer counts
    lam: np.ndarray     # (n_units, n_groups) true Poisson means
    theta: np.ndarray   # (n_units,)
    phi: np.ndarray     # (n_units, n_groups)
    zero_cells: list[tuple[str, str]]


def generate_dataset(
    dgp: DgpConfig,
    truth_expected: ExpectedCounts,
    covariate: np.ndarray,
    adjacency: Adjacency,
    k: int,
) -> ReplicateData:
    """Forward-sample one replicate from the model.

    The spatial field is an exact CAR draw, the unstructured effects are iid
    normal, and counts are Poisson around the expected-count offsets. Cells
    with zero truth denominators keep a structural zero count and are
    flagged. Deterministic for a given (master seed, k).
    """
    n, n_groups = truth_expected.values.shape
    if len(dgp.beta) != 1 + (n_groups - 1) + 1:
        raise SimulationError(
            f"beta has {len(dgp.beta)} entries, need {n_groups + 1} "
            "(intercept, group contrasts, covariate)"
        )
    covariate = np.asarray(covariate, dtype=float)
    if covariate.shape != (n,):
        raise SimulationError(f"covariate shape {covariate.shape} does not match {n} units")

    rng = np.random.default_rng(np.random.SeedSequence([dgp.master_seed, k, _STREAM_DGP]))
    theta = sample_car_prior(adjacency, dgp.rho, dgp.car_scale, rng)
    phi = rng.normal(0.0, np.sqrt(dgp.phi_var), size=(n, n_groups))

    cov_scaled = (covariate - covariate.mean()) / covariate.std()
    beta = np.asarray(dgp.beta)
    log_rate = beta[0] + beta[-1] * cov_scaled[:, None] + theta[:, None] + phi
    for g in range(1, n_groups):
        log_rate[:, g] += beta[g]
    lam = np.exp(log_rate) * truth_expected.values
    y = rng.poisson(lam).astype(np.int64)

    zero_cells = [
        (truth_expected.unit_ids[i], truth_expected.groups[g])
        for i, g in np.argwhere(truth_expected.values == 0)
    ]
    return ReplicateData(k, y, lam, theta, phi, zero_cells)


# ---------------------------------------------------------------------------
# replicate metrics (per-cell, over the replicate axis)


def mape(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Mean over replicates of |(estimate - truth) / truth| per cell.

    Cells whose truth hits zero in any replicate are excluded and come back
    as NaN so callers can list them.
    """
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if est.shape != tru.shape:
        raise SimulationError(f"shape mismatch {est.shape} vs {tru.shape}")
    bad = np.any(tru == 0, axis=0) | np.any(np.isnan(tru), axis=0) | np.any(np.isnan(est), axis=0)
    out = np.mean(np.abs((est - tru) / np.where(tru == 0, np.nan, tru)), axis=0)
    return np.where(bad, np.nan, out)


def bias(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Mean over replicates of (estimate - truth) per cell."""
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if est.shape != tru.shape:
        raise SimulationError(f"shape mismatch {est.shape} vs {tru.shape}")
    return np.mean(est - tru, axis=0)


def upward_fraction(bias_per_cell: np.ndarray, groups: tuple[str, ...]) -> dict[str, float]:
    """Percent of cells with strictly positive bias, per group; NaN cells
    (excluded from the metric base) are skipped."""
    b = np.asarray(bias_per_cell, dtype=float)
    out = {}
    for g, group in enumerate(groups):
        col = b[:, g]
        col = col[~np.isnan(col)]
        out[group] = float(100.0 * np.mean(col > 0)) if col.size else float("nan")
    return out


# ---------------------------------------------------------------------------
# synthetic inputs (stand-ins for restricted real geography and registries)

DEFAULT_AGE_WEIGHTS = (0.08, 0.16, 0.15, 0.14, 0.15, 0.16, 0.16)
# Event hazards per band, rising with age. The scale is calibrated so that
# at desk-scale geographies the protected-vs-true denominator errors sit in
# the same relative-error regime as full-scale small-area studies.
DEFAULT_HAZARDS = (0.024, 0.016, 0.036, 0.056, 0.096, 0.18, 0.34)


def synth_population(
    h: Hierarchy,
    ages: AgeSchema,
    groups: GroupSchema,
    *,
    minority_ratio: float = 12.0,
    pop_scale: float = 174.0,
    minority_sigma: float = 0.7,
    age_weights: tuple[float, ...] | None = None,
    seed: int = 0,
) -> TabulationCube:
    """Leaf population cube: the reference group centers on ``pop_scale``
    people per unit; every other group averages ``pop_scale / minority_ratio``
    but is spatially concentrated (lognormal spread ``minority_sigma``), the
    segregation-like pattern that makes small sparse cells the norm."""
    weights = np.asarray(age_weights if age_weights is not None else DEFAULT_AGE_WEIGHTS)
    if weights.size != ages.n:
        weights = np.full(ages.n, 1.0 / ages.n)
    weights = weights / weights.sum()
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_POP]))
    n = len(h.leaf_ids)
    values = np.zeros((n, ages.n, groups.n))
    for g in range(groups.n):
        if g == 0:
            totals = rng.lognormal(np.log(pop_scale), 0.35, size=n)
        else:
            mean = pop_scale / minority_ratio
            totals = rng.lognormal(np.log(mean) - minority_sigma**2 / 2, minority_sigma, size=n)
        totals = np.round(totals).astype(np.int64)
        for i in range(n):
            values[i, :, g] = rng.multinomial(totals[i], weights)
    return TabulationCube(h, h.depth - 1, ages, groups, values, integer_valued=True)


def synth_deaths(
    population: TabulationCube,
    hazards: tuple[float, ...] | None = None,
    seed: int = 0,
    hazard_scale: float = 1.0,
) -> TabulationCube:
    """Binomial event counts per cell under an age-rising hazard schedule."""
    hz = np.asarray(hazards if hazards is not None else DEFAULT_HAZARDS)
    if hz.size != population.ages.n:
        raise SimulationError(
            f"{hz.size} hazards for {population.ages.n} age bands"
        )
    if np.any(hz < 0) or np.any(hz > 1):
        raise SimulationError("hazards must lie in [0, 1]")
    hz = np.minimum(hz * hazard_scale, 0.5)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_DEATHS]))
    counts = rng.binomial(population.values.astype(np.int64), hz[None, :, None])
    return population.with_values(counts.astype(float), integer_valued=True)


def synth_poverty(n_units: int, seed: int = 0) -> np.ndarray:
    """Area-level deprivation proportions in (0, 1)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_COV]))
    return rng.beta(2.0, 8.0, size=n_units)


# ---------------------------------------------------------------------------
# the study


@dataclass
class StudyReport:
    """Per-source aggregates over replicates plus the per-unit metric tables."""

    unit_ids: list[str]
    groups: tuple[str, ...]
    sources: list[str]
    coef_names: list[str]
    beta_true: np.ndarray
    n_reps: int
    master_seed: int
    coef_estimates: dict[str, np.ndarray]      # source -> (n_reps, p)
    coef_bias_mean: dict[str, np.ndarray]      # source -> (p,)
    coef_bias_sd: dict[str, np.ndarray]
    smr_bias: dict[str, np.ndarray]            # source -> (n, G)
    smr_mape: dict[str, np.ndarray]
    group_bias: dict[str, dict[str, float]]    # source -> group -> mean bias
    group_mape: dict[str, dict[str, float]]
    upward_pct: dict[str, dict[str, float]]
    under_pct: dict[str, dict[str, float]]     # expected counts vs truth
    zero_pct: dict[str, dict[str, float]]
    excluded: dict[str, list[tuple[str, str]]]
    convergence: dict[str, list[bool]]         # source -> per-replicate flag

    def tables(self) -> dict[str, list[dict]]:
        """Flatten into the delimited study tables."""
        coef_rows = []
        for src in self.sources:
            for j, name in enumerate(self.coef_names):
                coef_rows.append(
                    {
                        "source": src,
                        "coefficient": name,
                        "true_value": float(self.beta_true[j]),
                        "mean_bias": float(self.coef_bias_mean[src][j]),
                        "sd_bias": float(self.coef_bias_sd[src][j]),
                    }
                )
        bias_rows, mape_rows = [], []
        for src in self.sources:
            for i, uid in enumerate(self.unit_ids):
                for g, group in enumerate(self.groups):
                    bias_rows.append(
                        {
                            "unit_id": uid,
                            "group": group,
                            "source": src,
                            "bias": float(self.smr_bias[src][i, g]),
                        }
                    )
                    mape_rows.append(
                        {
                            "unit_id": uid,
                            "group": group,
                            "source": src,
                            "mape": float(self.smr_mape[src][i, g]),
                        }
                    )
        frac_rows = []
        for src in self.sources:
            for group in self.groups:
                frac_rows.append(
                    {
                        "source": src,
                        "group": group,
                        "mean_smr_bias": self.group_bias[src][group],
                        "mean_smr_mape": self.group_mape[src][group],
                        "upward_bias_pct": self.upward_pct[src][group],
                        "underestimated_expected_pct": self.under_pct[src][group],
                        "zero_expected_pct": self.zero_pct[src][group],
                    }
                )
        rep_rows = []
        for src in self.sources:
            for k in range(self.n_reps):
                for j, name in enumerate(self.coef_names):
                    rep_rows.append(
                        {
                            "replicate": k,
                            "source": src,
                            "coefficient": name,
                            "estimate": float(self.coef_estimates[src][k, j]),
                            "converged": bool(self.convergence[src][k]),
                        }
                    )
        return {
            "coef_bias": coef_rows,
            "smr_bias": bias_rows,
            "smr_mape": mape_rows,
            "fractions": frac_rows,
            "replicates": rep_rows,
        }


def _replicate(
    k: int,
    dgp: DgpConfig,
    truth: ExpectedCounts,
    covariate: np.ndarray,
    adjacency: Adjacency,
    specs: dict[str, ModelSpec],
    sources: list[str],
    mcmc: McmcConfig,
) -> dict:
    data = generate_dataset(dgp, truth, covariate, adjacency, k)
    truth_vals = np.where(truth.values > 0, truth.values, np.nan)
    smr_true = data.lam / truth_vals
    out = {"smr_true": smr_true, "per_source": {}}
    for s_idx, src in enumerate(sources):
        spec = specs[src]
        y_vec = spec.flatten(data.y)
        seed = int(
            np.random.SeedSequence([dgp.master_seed, k, _STREAM_FIT + s_idx]).generate_state(1)[0]
        )
        cfg = McmcConfig(mcmc.iterations, mcmc.burnin, mcmc.thin, seed)
        draws = fit(y_vec, spec, cfg)
        summary = mrr_summary(draws)
        smr_hat = predict_counts(draws, spec).smr
        out["per_source"][src] = {
            "coef": draws.beta.mean(axis=0),
            "smr_hat": smr_hat,
            "converged": summary.converged,
        }
    return out


def run_study(
    dgp: DgpConfig,
    sources: list[ExpectedCounts],
    covariate: np.ndarray,
    adjacency: Adjacency,
    mcmc: McmcConfig,
    *,
    truth_tag: str = "truth",
    jobs: int = 1,
    spec_options: dict | None = None,
) -> StudyReport:
    """Generate ``dgp.n_reps`` datasets from the truth source and fit the
    model once per replicate per denominator source.

    Every source's metrics are judged against the same truth: the true
    standardized ratio is the replicate's Poisson mean over the unprotected
    expected count. Replicates run in forked workers when ``jobs`` > 1;
    ``map`` returns them in replicate order, so worker scheduling cannot
    change the results. One CAR plan is built from ``adjacency`` and shared
    by every source's spec and every replicate (workers receive it pickled,
    with each batch of replicates).
    """
    tags = [s.source for s in sources]
    if len(set(tags)) != len(tags):
        raise SimulationError(f"duplicate source tags {tags}")
    if truth_tag not in tags:
        raise SimulationError(f"no source tagged {truth_tag!r} among {tags}")
    truth = sources[tags.index(truth_tag)]
    for s in sources:
        if not s.aligned_with(truth):
            raise SimulationError(f"source {s.source!r} is not aligned with the truth source")

    opts = dict(spec_options or {})
    plan = CarPlan(adjacency) if opts.get("include_spatial", True) else None
    specs = {s.source: build_spec(s, covariate, plan, **opts) for s in sources}
    p = specs[truth_tag].x.shape[1]
    if len(dgp.beta) != p:
        raise SimulationError(f"dgp beta has {len(dgp.beta)} entries, model has {p} columns")

    replicate = functools.partial(
        _replicate,
        dgp=dgp,
        truth=truth,
        covariate=np.asarray(covariate, dtype=float),
        adjacency=adjacency,
        specs=specs,
        sources=tags,
        mcmc=mcmc,
    )
    ks = range(dgp.n_reps)
    if jobs and jobs > 1:
        with multiprocessing.get_context("fork").Pool(processes=jobs) as pool:
            results = pool.map(replicate, ks)
    else:
        results = list(map(replicate, ks))

    n, n_groups = truth.values.shape
    smr_true_stack = np.stack([r["smr_true"] for r in results])  # (K, n, G)
    beta_true = np.asarray(dgp.beta, dtype=float)

    coef_estimates, coef_bias_mean, coef_bias_sd = {}, {}, {}
    smr_bias_d, smr_mape_d = {}, {}
    group_bias, group_mape, upward_pct = {}, {}, {}
    under_pct, zero_pct, excluded, convergence = {}, {}, {}, {}

    for src in tags:
        est = np.stack([r["per_source"][src]["coef"] for r in results])
        coef_estimates[src] = est
        diffs = est - beta_true[None, :]
        coef_bias_mean[src] = diffs.mean(axis=0)
        coef_bias_sd[src] = diffs.std(axis=0, ddof=1) if est.shape[0] > 1 else np.zeros(p)

        smr_hat_stack = np.stack([r["per_source"][src]["smr_hat"] for r in results])
        b = bias(smr_hat_stack, smr_true_stack)
        m = mape(smr_hat_stack, smr_true_stack)
        smr_bias_d[src] = b
        smr_mape_d[src] = m
        group_bias[src] = {
            g: float(np.nanmean(b[:, j])) for j, g in enumerate(truth.groups)
        }
        group_mape[src] = {
            g: float(np.nanmean(m[:, j])) for j, g in enumerate(truth.groups)
        }
        upward_pct[src] = upward_fraction(b, truth.groups)
        src_obj = sources[tags.index(src)]
        under_pct[src] = underestimation_fraction(src_obj, truth)
        zero_pct[src] = zero_count_percent(src_obj)
        excluded[src] = list(specs[src].excluded)
        convergence[src] = [bool(r["per_source"][src]["converged"]) for r in results]

    return StudyReport(
        unit_ids=list(truth.unit_ids),
        groups=truth.groups,
        sources=tags,
        coef_names=list(specs[truth_tag].colnames),
        beta_true=beta_true,
        n_reps=dgp.n_reps,
        master_seed=dgp.master_seed,
        coef_estimates=coef_estimates,
        coef_bias_mean=coef_bias_mean,
        coef_bias_sd=coef_bias_sd,
        smr_bias=smr_bias_d,
        smr_mape=smr_mape_d,
        group_bias=group_bias,
        group_mape=group_mape,
        upward_pct=upward_pct,
        under_pct=under_pct,
        zero_pct=zero_pct,
        excluded=excluded,
        convergence=convergence,
    )
