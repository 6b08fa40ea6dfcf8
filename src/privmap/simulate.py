"""Replicated simulation study: generate counts from the spatial Poisson
data-generating process, fit the model once per denominator source, and
aggregate bias/MAPE/fraction metrics against the stored truth.

The generating coefficients default to (0, 0.4, 0.01) for intercept, group
contrast and the area covariate; the spatial field uses dependence factor
0.2 with conditional variance 1/w_i+, and the unstructured effect has
variance 0.25.
"""

from __future__ import annotations

import dataclasses
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
    scale_covariate,
)
from .errors import SimulationError
from .geo import Adjacency, Hierarchy
from .standardize import ExpectedCounts, group_percent, underestimation_fraction, zero_count_percent
from .tabulation import AgeSchema, GroupSchema, TabulationCube

# rng stream tags. SeedSequence pads a key shorter than its pool with zeros, so
# replicate k's stream [seed, k, _STREAM_DGP] is [seed, k]: when the master seed
# is the synth seed, replicates 10-12 reuse the synth streams below (k = n_leaves geo's)
_STREAM_DGP = 0
_STREAM_FIT = 1000
_STREAM_POP = 10
_STREAM_DEATHS = 11
_STREAM_COV = 12


def derived_seed(*key: int) -> int:
    """A 32-bit seed drawn from the stream keyed by ``key``."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


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
        if self.car_scale <= 0:
            raise SimulationError("CAR scale must be positive")
        if self.phi_var <= 0:
            raise SimulationError("phi variance must be positive")
        if self.n_reps < 1:
            raise SimulationError("need at least one replicate")
        if not (0.0 <= self.rho < 1.0):
            raise SimulationError(f"rho must lie in [0, 1), got {self.rho}")


@dataclass
class ReplicateData:
    y: np.ndarray       # (n_units, n_groups) integer counts
    lam: np.ndarray     # (n_units, n_groups) true Poisson means
    theta: np.ndarray   # (n_units,)
    phi: np.ndarray     # (n_units, n_groups)


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
    with zero truth denominators keep a structural zero count.
    Deterministic for a given (master seed, k).
    """
    n, n_groups = truth_expected.values.shape
    if len(dgp.beta) != 1 + (n_groups - 1) + 1:
        raise SimulationError(
            f"beta has {len(dgp.beta)} entries, need {n_groups + 1} "
            "(intercept, group contrasts, covariate)"
        )
    cov_scaled = scale_covariate(covariate, n)

    rng = np.random.default_rng(np.random.SeedSequence([dgp.master_seed, k, _STREAM_DGP]))
    theta = sample_car_prior(adjacency, dgp.rho, dgp.car_scale, rng)
    phi = rng.normal(0.0, np.sqrt(dgp.phi_var), size=(n, n_groups))

    beta = np.asarray(dgp.beta)
    log_rate = beta[0] + beta[-1] * cov_scaled[:, None] + theta[:, None] + phi
    for g in range(1, n_groups):
        log_rate[:, g] += beta[g]
    lam = np.exp(log_rate) * truth_expected.values
    y = rng.poisson(lam).astype(np.int64)
    return ReplicateData(y, lam, theta, phi)


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
    return group_percent(b > 0, ~np.isnan(b), groups)


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
    seed: int = 0,
) -> TabulationCube:
    """Leaf population cube: the reference group centers on ``pop_scale``
    people per unit; every other group averages ``pop_scale / minority_ratio``
    but is spatially concentrated (lognormal spread ``minority_sigma``), the
    segregation-like pattern that makes small sparse cells the norm."""
    weights = np.asarray(DEFAULT_AGE_WEIGHTS)
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
        values[:, :, g] = rng.multinomial(np.round(totals).astype(np.int64), weights)
    return TabulationCube(h, h.depth - 1, ages, groups, values)


def synth_deaths(
    population: TabulationCube,
    hazards: tuple[float, ...] | None = None,
    seed: int = 0,
    hazard_scale: float = 1.0,
) -> TabulationCube:
    """Binomial event counts per cell under an age-rising hazard schedule,
    by default :data:`DEFAULT_HAZARDS` resampled onto the cube's age bands."""
    if hazards is None:
        knots = np.linspace(0, 1, len(DEFAULT_HAZARDS))
        hazards = np.interp(np.linspace(0, 1, population.ages.n), knots, DEFAULT_HAZARDS)
    hz = np.asarray(hazards)
    if hz.size != population.ages.n:
        raise SimulationError(
            f"{hz.size} hazards for {population.ages.n} age bands"
        )
    if np.any(hz < 0) or np.any(hz > 1):
        raise SimulationError("hazards must lie in [0, 1]")
    hz = np.minimum(hz * hazard_scale, 0.5)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_DEATHS]))
    counts = rng.binomial(population.values.astype(np.int64), hz[None, :, None])
    return population.with_values(counts.astype(float))


def synth_poverty(n_units: int, seed: int = 0) -> np.ndarray:
    """Area-level deprivation proportions in (0, 1)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_COV]))
    return rng.beta(2.0, 8.0, size=n_units)


# ---------------------------------------------------------------------------
# the study


# the study tables: each one's name and header, in the order they are written
TABLES = {
    "coef_bias": ["source", "coefficient", "true_value", "mean_bias", "sd_bias"],
    "smr_bias": ["unit_id", "group", "source", "bias"],
    "smr_mape": ["unit_id", "group", "source", "mape"],
    "fractions": [
        "source", "group", "mean_smr_bias", "mean_smr_mape", "upward_bias_pct",
        "underestimated_expected_pct", "zero_expected_pct",
    ],
    "replicates": ["replicate", "source", "coefficient", "estimate", "converged"],
}


@dataclass
class StudyReport:
    """Per-source results over replicates; the aggregates are derived from
    them on access."""

    unit_ids: list[str]
    groups: tuple[str, ...]
    sources: list[str]
    coef_names: list[str]
    beta_true: np.ndarray
    coef_estimates: dict[str, np.ndarray]      # source -> (n_reps, p)
    smr_bias: dict[str, np.ndarray]            # source -> (n, G)
    smr_mape: dict[str, np.ndarray]
    under_pct: dict[str, dict[str, float]]     # source -> group -> percent, expected counts vs truth
    zero_pct: dict[str, dict[str, float]]
    convergence: dict[str, list[bool]]         # source -> per-replicate flag

    @property
    def n_reps(self) -> int:
        return len(self.coef_estimates[self.sources[0]])

    @property
    def coef_bias_mean(self) -> dict[str, np.ndarray]:
        """Source -> mean over replicates of each coefficient's error."""
        return {src: (est - self.beta_true).mean(axis=0) for src, est in self.coef_estimates.items()}

    @property
    def coef_bias_sd(self) -> dict[str, np.ndarray]:
        """Source -> sample SD over replicates of each coefficient's error,
        zero for one replicate."""
        return {
            src: (est - self.beta_true).std(axis=0, ddof=1) if len(est) > 1 else np.zeros(est.shape[1])
            for src, est in self.coef_estimates.items()
        }

    def _group_means(self, per_cell: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
        return {src: {g: float(np.nanmean(v[:, j])) for j, g in enumerate(self.groups)} for src, v in per_cell.items()}

    @property
    def group_bias(self) -> dict[str, dict[str, float]]:
        """Source -> group -> mean SMR bias over the group's cells."""
        return self._group_means(self.smr_bias)

    @property
    def group_mape(self) -> dict[str, dict[str, float]]:
        """Source -> group -> mean SMR MAPE over the group's cells."""
        return self._group_means(self.smr_mape)

    @property
    def upward_pct(self) -> dict[str, dict[str, float]]:
        """Source -> group -> percent of cells with upward SMR bias."""
        return {src: upward_fraction(b, self.groups) for src, b in self.smr_bias.items()}

    def tables(self) -> dict[str, list[dict]]:
        """The study tables, each a list of rows keyed by its :data:`TABLES`
        header."""
        bias_mean, bias_sd = self.coef_bias_mean, self.coef_bias_sd
        group_bias, group_mape, upward = self.group_bias, self.group_mape, self.upward_pct
        coefs = list(enumerate(self.coef_names))
        cells = [(uid, group) for uid in self.unit_ids for group in self.groups]

        def per_cell(values):
            return ((*cell, src, v) for src in self.sources for cell, v in zip(cells, values[src].ravel().tolist()))

        rows = {  # generators, so that only the keyed rows are held
            "coef_bias": (
                (src, name, float(self.beta_true[j]), float(bias_mean[src][j]), float(bias_sd[src][j]))
                for src in self.sources
                for j, name in coefs
            ),
            "smr_bias": per_cell(self.smr_bias),
            "smr_mape": per_cell(self.smr_mape),
            "fractions": (
                (src, g, group_bias[src][g], group_mape[src][g], upward[src][g],
                 self.under_pct[src][g], self.zero_pct[src][g])
                for src in self.sources
                for g in self.groups
            ),
            "replicates": (
                (k, src, name, float(self.coef_estimates[src][k, j]), bool(self.convergence[src][k]))
                for src in self.sources
                for k in range(self.n_reps)
                for j, name in coefs
            ),
        }
        return {name: [dict(zip(TABLES[name], row)) for row in rows[name]] for name in TABLES}


def _replicate(
    k: int,
    dgp: DgpConfig,
    truth: ExpectedCounts,
    covariate: np.ndarray,
    adjacency: Adjacency,
    specs: list[ModelSpec],
    mcmc: McmcConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Replicate ``k``'s true SMRs (n, G) and, per spec in order, the
    posterior-mean coefficients (S, p), the SMR estimates (S, n, G) and the
    convergence flags (S,)."""
    data = generate_dataset(dgp, truth, covariate, adjacency, k)
    smr_true = data.lam / np.where(truth.values > 0, truth.values, np.nan)
    coefs, smr_hats, converged = [], [], []
    for s_idx, spec in enumerate(specs):
        seed = derived_seed(dgp.master_seed, k, _STREAM_FIT + s_idx)
        draws = fit(spec.flatten(data.y), spec, dataclasses.replace(mcmc, seed=seed))
        converged.append(mrr_summary(draws).converged)
        coefs.append(draws.beta.mean(axis=0))
        smr_hats.append(predict_counts(draws, spec).smr)
        del draws  # the next source's fit replaces these draws rather than joining them
    return smr_true, np.stack(coefs), np.stack(smr_hats), np.array(converged)


def run_study(
    dgp: DgpConfig,
    sources: list[ExpectedCounts],
    covariate: np.ndarray,
    adjacency: Adjacency,
    mcmc: McmcConfig,
    *,
    jobs: int = 1,
    spec_options: dict | None = None,
) -> StudyReport:
    """Generate ``dgp.n_reps`` datasets from the ``truth`` source and fit the
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
    if "truth" not in tags:
        raise SimulationError(f"no source tagged 'truth' among {tags}")
    truth = sources[tags.index("truth")]
    for s in sources:
        if not s.aligned_with(truth):
            raise SimulationError(f"source {s.source!r} is not aligned with the truth source")

    plan = CarPlan(adjacency)
    specs = [build_spec(s, covariate, plan, **(spec_options or {})) for s in sources]

    replicate = functools.partial(
        _replicate,
        dgp=dgp,
        truth=truth,
        covariate=np.asarray(covariate, dtype=float),
        adjacency=adjacency,
        specs=specs,
        mcmc=mcmc,
    )
    ks = range(dgp.n_reps)
    if jobs and jobs > 1:
        with multiprocessing.get_context("fork").Pool(processes=jobs) as pool:
            results = pool.map(replicate, ks)
    else:
        results = list(map(replicate, ks))

    # (K, n, G), (K, S, p), (K, S, n, G) and (K, S), sources in tags order
    smr_true, coefs, smr_hats, converged = map(np.stack, zip(*results))
    return StudyReport(
        unit_ids=list(truth.unit_ids),
        groups=truth.groups,
        sources=tags,
        coef_names=list(specs[0].colnames),
        beta_true=np.asarray(dgp.beta, dtype=float),
        coef_estimates={src: coefs[:, s] for s, src in enumerate(tags)},
        smr_bias={src: bias(smr_hats[:, s], smr_true) for s, src in enumerate(tags)},
        smr_mape={src: mape(smr_hats[:, s], smr_true) for s, src in enumerate(tags)},
        under_pct={s.source: underestimation_fraction(s, truth) for s in sources},
        zero_pct={s.source: zero_count_percent(s) for s in sources},
        convergence={src: converged[:, s].tolist() for s, src in enumerate(tags)},
    )
