"""Multilevel spatial Poisson regression fit by Metropolis-within-Gibbs.

The count for unit i and group j is Poisson with log mean

    x_ij' beta + theta_i + phi_ij + log(offset_ij)

where theta carries a proper conditionally autoregressive (CAR) prior over
the leaf adjacency (each unit normal around rho times the mean of its
neighbors, variance tau^2 over its neighbor count) and phi is an
unstructured overdispersion term. The model is sampled as written: theta's
prior is the proper CAR with no sum-to-zero constraint, so the intercept and
the mean of theta are identified only through their priors. Coefficients,
random effects, variances and the spatial dependence parameter are all
sampled; exponentiated coefficient summaries give multiplicative rate-ratio
estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from numpy.polynomial import chebyshev

from .errors import ModelError
from .geo import Adjacency
from .standardize import ExpectedCounts
from .tables import fmt, write_table


# ---------------------------------------------------------------------------
# model specification


@dataclass
class ModelSpec:
    """Design, offsets, random-effect structure and priors for one fit."""

    unit_ids: list[str]
    groups: tuple[str, ...]
    colnames: list[str]
    x: np.ndarray          # (S, p)
    offset: np.ndarray     # (S,) log expected counts
    unit_idx: np.ndarray   # (S,) stratum -> leaf index
    group_idx: np.ndarray  # (S,) stratum -> group index
    plan: CarPlan | None = None  # spatial structure, present when include_spatial
    include_spatial: bool = True
    include_overdispersion: bool = True
    prior_beta_var: float = 1e5
    prior_ig_shape: float = 1.0
    prior_ig_scale: float = 0.01
    fix_tau2: float | None = None
    fix_sigma2: float | None = None
    excluded: list[tuple[str, str]] = field(default_factory=list)
    covariate_scaling: dict = field(default_factory=dict)

    @property
    def n_strata(self) -> int:
        return self.x.shape[0]

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)

    def flatten(self, per_cell: np.ndarray) -> np.ndarray:
        """Pull a (units x groups) matrix down to the included-strata vector."""
        return np.asarray(per_cell)[self.unit_idx, self.group_idx]


ZERO_POLICIES = ("exclude", "floor")
ZERO_FLOOR = 1e-6


def build_spec(
    expected: ExpectedCounts,
    covariate: np.ndarray | None,
    adjacency: Adjacency | CarPlan | None,
    *,
    include_spatial: bool = True,
    include_overdispersion: bool = True,
    zero_policy: str = "exclude",
    prior_beta_var: float = 1e5,
    prior_ig_shape: float = 1.0,
    prior_ig_scale: float = 0.01,
    fix_tau2: float | None = None,
    fix_sigma2: float | None = None,
) -> ModelSpec:
    """Assemble the design from expected counts, an optional area covariate,
    and the leaf adjacency.

    ``adjacency`` is either a prebuilt :class:`CarPlan`, which callers that
    fit many specs on one adjacency share, or an ``Adjacency``, for which
    the spec builds its own plan.

    Cells with zero expected count cannot enter the likelihood (their log
    offset is undefined); by default they are excluded and reported, or with
    ``zero_policy="floor"`` the offset is floored at a tiny constant.
    """
    if zero_policy not in ZERO_POLICIES:
        raise ModelError(f"unknown zero policy {zero_policy!r}")
    if include_spatial and adjacency is None:
        raise ModelError("spatial effects need an adjacency")
    if include_spatial and adjacency.leaf_ids != expected.unit_ids:
        raise ModelError("adjacency leaves do not match expected-count units")
    plan = None
    if include_spatial:
        plan = adjacency if isinstance(adjacency, CarPlan) else CarPlan(adjacency)

    n, n_groups = expected.values.shape
    p_vals = expected.values
    dropped = p_vals <= 0 if zero_policy == "exclude" else np.zeros(p_vals.shape, dtype=bool)
    excluded = [(expected.unit_ids[i], expected.groups[g]) for i, g in zip(*np.nonzero(dropped))]
    unit_idx, group_idx = np.nonzero(~dropped)  # row-major, as the strata are ordered
    offset_vals = p_vals[unit_idx, group_idx]
    offset = np.log(np.maximum(offset_vals, ZERO_FLOOR if zero_policy == "floor" else 0))

    cols = [np.ones(unit_idx.size)]
    colnames = ["intercept"]
    for g in range(1, n_groups):
        cols.append((group_idx == g).astype(float))
        colnames.append(f"group:{expected.groups[g]}")
    scaling = {}
    if covariate is not None:
        covariate = np.asarray(covariate, dtype=float)
        if covariate.shape != (n,):
            raise ModelError(f"covariate must have one value per unit, got {covariate.shape}")
        mean, sd = float(covariate.mean()), float(covariate.std())
        if sd == 0:
            raise ModelError("covariate is constant; cannot scale")
        scaled = (covariate - mean) / sd
        cols.append(scaled[unit_idx])
        colnames.append("covariate")
        scaling = {"mean": mean, "sd": sd}

    return ModelSpec(
        unit_ids=list(expected.unit_ids),
        groups=tuple(expected.groups),
        colnames=colnames,
        x=np.column_stack(cols),
        offset=offset,
        unit_idx=unit_idx,
        group_idx=group_idx,
        plan=plan,
        include_spatial=include_spatial,
        include_overdispersion=include_overdispersion,
        prior_beta_var=prior_beta_var,
        prior_ig_shape=prior_ig_shape,
        prior_ig_scale=prior_ig_scale,
        fix_tau2=fix_tau2,
        fix_sigma2=fix_sigma2,
        excluded=excluded,
        covariate_scaling=scaling,
    )


@dataclass
class McmcConfig:
    iterations: int = 10_000
    burnin: int = 5_000
    thin: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ModelError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.burnin < self.iterations:
            raise ModelError(f"burn-in must lie in [0, iterations), got {self.burnin}")
        if self.thin < 1:
            raise ModelError("thinning interval must be >= 1")

    @property
    def n_stored(self) -> int:
        return (self.iterations - self.burnin) // self.thin


# ---------------------------------------------------------------------------
# CAR structure helpers


def car_conditional(
    theta: np.ndarray, plan: CarPlan, rho: float, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Full-conditional mean and variance of each spatial effect given the rest:
    mean rho * sum_k w_ik theta_k / w_i+, variance scale / w_i+."""
    w_theta = plan.weights @ theta
    return rho * w_theta / plan.degrees, scale / plan.degrees


def _ldl(q: scipy.sparse.spmatrix) -> tuple[np.ndarray, scipy.sparse.csc_matrix]:
    """Sparse LDL' of a symmetric precision matrix.

    SuperLU with a symmetric fill-reducing ordering and no pivoting gives
    Q[p][:, p] = L U with U = D L', where p inverts the returned ``perm``;
    the pivots D are U's diagonal. Returns ``perm`` and U. A precision that
    is not positive definite (a pivot that is not positive, a row pivoted
    off the diagonal, or a singular matrix) raises ModelError.
    """
    from scipy.sparse.linalg import splu

    try:
        lu = splu(q.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0, options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor this way
        raise ModelError(f"CAR precision not positive definite: {exc}") from None
    u = lu.U
    if not np.array_equal(lu.perm_r, lu.perm_c) or not np.all(u.diagonal() > 0):
        raise ModelError("CAR precision not positive definite: a pivot is not positive")
    return lu.perm_c, u


def sample_car_prior(
    adjacency: Adjacency, rho: float, scale: float, rng: np.random.Generator, size: int = 1
) -> np.ndarray:
    """Exact joint draw(s) from the proper CAR prior with precision
    Q = (D - rho*W)/scale: with Q's sparse factor L D L', each draw is
    y = L'^-1 D^-1/2 z (solved as U y = D^1/2 z), put back in leaf order."""
    from scipy.sparse.linalg import spsolve_triangular

    if not (0.0 <= rho < 1.0):
        raise ModelError(f"rho must lie in [0, 1), got {rho}")
    if scale <= 0:
        raise ModelError(f"scale must be positive, got {scale}")
    perm, u = _ldl((scipy.sparse.diags(adjacency.row_sums) - rho * adjacency.weights) / scale)
    z = rng.standard_normal((adjacency.n, size))
    draws = spsolve_triangular(u, np.sqrt(u.diagonal())[:, None] * z, lower=False)[perm]
    return draws[:, 0] if size == 1 else draws.T


def greedy_coloring(weights: scipy.sparse.csr_matrix) -> np.ndarray:
    """Proper vertex coloring so units updated together share no edge.

    Units take, in index order, the smallest color none of their positive-
    weight neighbors has; ``weights`` is a CSR matrix.
    """
    n = weights.shape[0]
    indptr = weights.indptr.tolist()
    # a non-positive weight points at slot n, whose color is never set
    neighbors = np.where(weights.data > 0, weights.indices, n).tolist()
    colors = [-1] * (n + 1)
    for i in range(n):
        used = {colors[k] for k in neighbors[indptr[i] : indptr[i + 1]]}
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    return np.array(colors[:n], dtype=int)


# The log-det series covers t = -log(1 - rho) in [0, LOG_DET_SPAN], that is
# rho <= 1 - e^-14; its node count was set from the measured error (below
# 2e-12 relative on 300- and 3,000-leaf grid and planar graphs).
LOG_DET_SPAN = 14.0
LOG_DET_NODES = 50


class CarPlan:
    """The spatial structure of one leaf adjacency, as the sampler uses it.

    Holds the degrees w_i+, the adjacency's CSR weights (shared, not a
    copy), the greedy color classes, and a Chebyshev series for the log-det
    of the CAR precision in rho. All of it depends on the adjacency alone,
    so one plan serves every fit on that adjacency; it holds plain arrays
    only, so it pickles.

    The series interpolates g(rho) = log|D - rho W| - sum log d_i -
    log(1 - rho) in t = -log(1 - rho) over [0, LOG_DET_SPAN], from exact
    sparse factorizations at LOG_DET_NODES Chebyshev nodes (Pace & Barry
    1997). g is smooth there: on a connected graph 1 - rho is the only
    factor of |D - rho W| that vanishes as rho -> 1.

    A graph that is not connected (an island, or several components) gets
    ``connected`` False and no series; fitting on it raises ModelError.
    """

    def __init__(self, adjacency: Adjacency):
        self.leaf_ids = list(adjacency.leaf_ids)
        self.connected = adjacency.is_connected()
        self.degrees = adjacency.row_sums
        self.weights = adjacency.weights
        colors = greedy_coloring(self.weights)
        self.color_classes = [np.flatnonzero(colors == c) for c in range(colors.max(initial=-1) + 1)]
        self.log_det_d: float | None = None
        self.log_det_coef: np.ndarray | None = None
        if self.connected:  # every degree is positive, so D - rho W is positive definite
            self.log_det_d = float(np.sum(np.log(self.degrees)))

            def g(x):
                rho = -np.expm1(-(x + 1) * LOG_DET_SPAN / 2)
                return [self._factor_log_det(r) - self.log_det_d - math.log1p(-r) for r in rho]

            self.log_det_coef = chebyshev.chebinterpolate(g, LOG_DET_NODES - 1)

    def _factor_log_det(self, rho: float) -> float:
        _, u = _ldl(scipy.sparse.diags(self.degrees) - rho * self.weights)
        return float(np.sum(np.log(u.diagonal())))

    def log_det(self, rho: float) -> float:
        """log|D - rho W| for rho in [0, 1): the series, or an exact
        factorization for rho past its span."""
        t = -math.log1p(-rho)
        if t > LOG_DET_SPAN:
            return self._factor_log_det(rho)
        # sum_k c_k T_k(x) with T_k(x) = cos(k arccos x): one vector
        # expression, four times faster than chebval's loop in the sweep
        angle = math.acos(2 * t / LOG_DET_SPAN - 1)
        g = float(np.cos(np.arange(self.log_det_coef.size) * angle) @ self.log_det_coef)
        return self.log_det_d + math.log1p(-rho) + g


# ---------------------------------------------------------------------------
# posterior containers


@dataclass
class PosteriorDraws:
    colnames: list[str]
    beta: np.ndarray    # (K, p)
    theta: np.ndarray   # (K, n) or (K, 0)
    phi: np.ndarray     # (K, S) or (K, 0)
    tau2: np.ndarray    # (K,)
    sigma2: np.ndarray  # (K,)
    rho: np.ndarray     # (K,)
    mcmc: McmcConfig
    accept_rates: dict[str, float]

    @property
    def n_stored(self) -> int:
        return self.beta.shape[0]


def _mean_variance(x: np.ndarray) -> float:
    """Variance of the segment mean via batch means (autocorrelation-aware)."""
    batch = max(int(math.sqrt(x.size)), 2)
    n_batches = x.size // batch
    if n_batches < 2:
        return float(x.var(ddof=1) / x.size)
    bm = x[: batch * n_batches].reshape(n_batches, batch).mean(axis=1)
    return float(bm.var(ddof=1) / n_batches)


def geweke_z(chain: np.ndarray, first: float = 0.25, last: float = 0.4) -> float:
    """Convergence z-score comparing the early and late chain segments,
    with batch-means variances so autocorrelation does not deflate them."""
    if np.ptp(chain) == 0:
        return 0.0
    k = chain.size
    a = chain[: max(int(first * k), 2)]
    b = chain[k - max(int(last * k), 2) :]
    denom = math.sqrt(_mean_variance(a) + _mean_variance(b))
    if denom == 0:
        return 0.0
    return float((a.mean() - b.mean()) / denom)


@dataclass
class FitSummary:
    params: dict[str, dict[str, float]]  # name -> mean/sd/q025/q975/geweke_z
    mrr: dict[str, dict[str, float]]     # coefficient -> point/lower/upper
    converged: bool

    def mrr_line(self, name: str) -> str:
        m = self.mrr[name]
        return f"{m['point']:.2f} ({m['lower']:.2f},{m['upper']:.2f})"


# the z-scores behave like t statistics with modest degrees of freedom on
# short stored chains, so the flag threshold carries some slack
GEWEKE_FLAG = 3.5


def mrr_summary(draws: PosteriorDraws) -> FitSummary:
    """Posterior summaries plus exponentiated-mean rate ratios with 95%
    percentile intervals per coefficient."""
    if draws.n_stored < 100:
        raise ModelError(f"need at least 100 stored draws, have {draws.n_stored}")
    params: dict[str, dict[str, float]] = {}
    mrr: dict[str, dict[str, float]] = {}

    def add(name: str, chain: np.ndarray, as_mrr: bool) -> None:
        lo, hi = np.percentile(chain, [2.5, 97.5])
        params[name] = {
            "mean": float(chain.mean()),
            "sd": float(chain.std(ddof=1)),
            "q025": float(lo),
            "q975": float(hi),
            "geweke_z": geweke_z(chain),
        }
        if as_mrr:
            mrr[name] = {
                "point": float(np.exp(chain.mean())),
                "lower": float(np.exp(lo)),
                "upper": float(np.exp(hi)),
            }

    for j, name in enumerate(draws.colnames):
        add(name, draws.beta[:, j], as_mrr=True)
    add("tau2", draws.tau2, as_mrr=False)
    add("sigma2", draws.sigma2, as_mrr=False)
    add("rho", draws.rho, as_mrr=False)
    converged = all(abs(p["geweke_z"]) < GEWEKE_FLAG for p in params.values())
    return FitSummary(params, mrr, converged)


@dataclass
class SmrEstimates:
    """Posterior-mean predicted counts and standardized ratios per cell;
    cells outside the likelihood come back as NaN and are listed."""

    unit_ids: list[str]
    groups: tuple[str, ...]
    yhat: np.ndarray  # (n_units, n_groups)
    smr: np.ndarray   # (n_units, n_groups)
    missing: list[tuple[str, str]]


def predict_counts(draws: PosteriorDraws, spec: ModelSpec) -> SmrEstimates:
    """Predicted count = posterior mean of the Poisson mean per stratum;
    the ratio divides by the offset scale (the expected count)."""
    eta = spec.x @ draws.beta.T  # (S, K)
    if spec.include_spatial:
        eta += draws.theta.T[spec.unit_idx]
    if spec.include_overdispersion:
        eta += draws.phi.T
    eta += spec.offset[:, None]
    yhat_strata = np.exp(eta).mean(axis=1)
    p_strata = np.exp(spec.offset)

    n, n_groups = len(spec.unit_ids), len(spec.groups)
    yhat = np.full((n, n_groups), np.nan)
    smr = np.full((n, n_groups), np.nan)
    yhat[spec.unit_idx, spec.group_idx] = yhat_strata
    smr[spec.unit_idx, spec.group_idx] = yhat_strata / p_strata
    return SmrEstimates(list(spec.unit_ids), spec.groups, yhat, smr, list(spec.excluded))


# ---------------------------------------------------------------------------
# the sampler


_ADAPT_WINDOW = 50
_TARGET_ACCEPT = 0.44
# random-walk step per dimension of a block, in units of the target's sd
# (Roberts, Gelman & Gilks 1997): 2.38 / sqrt(d) for a d-dimensional block
_RW_SCALE = 2.38


def _proposal_shapes(spec: ModelSpec, exp_eta: np.ndarray, tau2: float, sigma2: float):
    """Random-walk shapes from each block's conditional precision at the
    current state, Fisher information plus prior precision.

    Returns a root R of beta's proposal covariance (2.38^2 / p) (X' diag(mu)
    X + I/V)^-1, and the sds 2.38 / sqrt(mu_i+ + d_i / tau2) of the spatial
    effects and 2.38 / sqrt(mu_s + 1 / sigma2) of the overdispersion effects
    (None when the model leaves the block out).
    """
    p = spec.x.shape[1]
    info = (spec.x.T * exp_eta) @ spec.x + np.diag(np.full(p, 1 / spec.prior_beta_var))
    # info = L L', so R = L'^-1 gives R R' = info^-1
    beta_root = _RW_SCALE / math.sqrt(p) * np.linalg.inv(np.linalg.cholesky(info)).T
    theta_sd = phi_sd = None
    if spec.include_spatial:
        exp_by_unit = np.bincount(spec.unit_idx, weights=exp_eta, minlength=spec.n_units)
        theta_sd = _RW_SCALE / np.sqrt(exp_by_unit + spec.plan.degrees / tau2)
    if spec.include_overdispersion:
        phi_sd = _RW_SCALE / np.sqrt(exp_eta + 1 / sigma2)
    return beta_root, theta_sd, phi_sd


def fit(y: np.ndarray, spec: ModelSpec, mcmc: McmcConfig | None = None) -> PosteriorDraws:
    """Run the Metropolis-within-Gibbs sampler on the model as written.

    One sweep makes, in order:

    - one random-walk move of the whole coefficient vector;
    - random-walk moves of the spatial effects, one graph-coloring block at
      a time (a block is conditionally independent), then the intercept
      shift: beta_0 + c and theta - c;
    - random-walk moves of all overdispersion effects at once, then the
      coefficient shift: beta + delta and phi - X delta;
    - conjugate inverse-gamma draws of the two variances;
    - a bounded random walk for the spatial dependence parameter.

    The two shifts leave every Poisson mean unchanged, so each draws its
    amount exactly from the Gaussian the priors give it along that
    direction, a generalised Gibbs step on a translation (Liu & Sabatti
    2000); the intercept shift needs column 0 of X to be the intercept, as
    ``build_spec`` makes it. The coefficient, spatial and overdispersion
    proposals take their shapes from the conditional precisions (see
    ``_proposal_shapes``), recomputed from the state at the start and after
    each burn-in window; the spatial dependence step is the one tuned scale,
    nudged toward a 0.44 acceptance rate per window. Both freeze after
    burn-in, so the post-burn-in chain is a fixed-kernel sampler and runs
    are bit-reproducible for a given seed.
    """
    if mcmc is None:
        mcmc = McmcConfig()
    y = np.asarray(y, dtype=float)
    if y.shape != (spec.n_strata,):
        raise ModelError(f"y has shape {y.shape}, expected ({spec.n_strata},)")
    if np.any(y < 0) or not np.allclose(y, np.round(y)):
        raise ModelError("counts must be non-negative integers")
    if not np.all(np.isfinite(spec.offset)):
        raise ModelError("offsets must be finite; exclude or floor zero expected counts")
    if spec.include_spatial and not spec.plan.connected:
        raise ModelError("adjacency must be connected for the spatial prior")

    rng = np.random.default_rng(np.random.SeedSequence([mcmc.seed]))
    s_count, p = spec.x.shape
    n_units = spec.n_units

    # initial state
    with np.errstate(over="ignore"):
        p_sum = float(np.exp(spec.offset).sum())
    if not math.isfinite(p_sum) or p_sum <= 0:
        raise ModelError("divergent initialization: offsets overflow the Poisson means")
    beta = np.zeros(p)
    beta[0] = math.log((y.sum() + 0.5) / p_sum)
    theta = np.zeros(n_units)
    phi = np.zeros(s_count)
    tau2 = spec.fix_tau2 if spec.fix_tau2 is not None else 0.1
    sigma2 = spec.fix_sigma2 if spec.fix_sigma2 is not None else 0.1
    rho = 0.5

    eta = spec.x @ beta + spec.offset
    if spec.include_spatial:
        eta += theta[spec.unit_idx]
    if spec.include_overdispersion:
        eta += phi
    exp_eta = np.exp(eta)
    if not np.all(np.isfinite(exp_eta)):
        raise ModelError("divergent initialization: non-finite Poisson means")

    y_by_unit = np.bincount(spec.unit_idx, weights=y, minlength=n_units)

    v_beta = spec.prior_beta_var
    if spec.include_spatial:
        plan = spec.plan
        w_sparse, deg, color_masks = plan.weights, plan.degrees, plan.color_classes
        deg_sum = float(deg.sum())
    if spec.include_overdispersion:
        # P = X'X / sigma2 + I / V shares X'X's eigenvectors
        xtx_val, xtx_vec = np.linalg.eigh(spec.x.T @ spec.x)

    beta_root, theta_sd, phi_sd = _proposal_shapes(spec, exp_eta, tau2, sigma2)
    rho_step, rho_seen = 0.1, 0  # rho's step, and its acceptances before this window
    # each block's accepted and proposed moves over the whole run
    accepted = dict.fromkeys(("beta", "theta", "phi", "rho"), 0)
    proposed = dict.fromkeys(accepted, 0)

    n_stored = mcmc.n_stored
    store_beta = np.empty((n_stored, p))
    store_theta = np.empty((n_stored, n_units if spec.include_spatial else 0))
    store_phi = np.empty((n_stored, s_count if spec.include_overdispersion else 0))
    store_tau2 = np.empty(n_stored)
    store_sigma2 = np.empty(n_stored)
    store_rho = np.empty(n_stored)

    stored = 0

    for sweep in range(1, mcmc.iterations + 1):
        in_burnin = sweep <= mcmc.burnin

        # --- coefficients, one block move
        step = beta_root @ rng.standard_normal(p)
        delta_eta = spec.x @ step
        new_eta = eta + delta_eta
        new_exp = np.exp(new_eta)
        b_new = beta + step
        log_r = (
            float(y @ delta_eta)
            - float(new_exp.sum() - exp_eta.sum())
            - float(b_new @ b_new - beta @ beta) / (2 * v_beta)
        )
        accept = math.log(rng.random()) < log_r
        if accept:
            beta = b_new
            eta, exp_eta = new_eta, new_exp
        accepted["beta"] += accept
        proposed["beta"] += 1

        # --- spatial effects, by color class
        if spec.include_spatial:
            # per-unit sums of Poisson means; a theta_i step of eps scales
            # every stratum of unit i by e^eps, so the sums update in place
            exp_by_unit = np.bincount(spec.unit_idx, weights=exp_eta, minlength=n_units)
            eta_dirty = False
            for members in color_masks:
                eps = theta_sd[members] * rng.standard_normal(members.size)
                m = car_conditional(theta, plan, rho, tau2)[0][members]
                lik = y_by_unit[members] * eps - exp_by_unit[members] * np.expm1(eps)
                t_old = theta[members]
                pri = -deg[members] / (2 * tau2) * ((t_old + eps - m) ** 2 - (t_old - m) ** 2)
                accept = np.log(rng.random(members.size)) < lik + pri
                if accept.any():
                    moved = members[accept]
                    theta[moved] += eps[accept]
                    exp_by_unit[moved] *= np.exp(eps[accept])
                    delta_unit = np.zeros(n_units)
                    delta_unit[moved] = eps[accept]
                    eta += delta_unit[spec.unit_idx]
                    eta_dirty = True
                accepted["theta"] += int(accept.sum())
                proposed["theta"] += members.size
            if eta_dirty:
                exp_eta = np.exp(eta)
            # intercept shift: beta_0 + c, theta - c (eta unchanged), c drawn
            # from its Gaussian conditional; 1'(D - rho W) = (1 - rho) d'
            a = (1 - rho) * deg_sum / tau2 + 1 / v_beta
            b = (1 - rho) * float(deg @ theta) / tau2 - beta[0] / v_beta
            c = b / a + rng.standard_normal() / math.sqrt(a)
            beta[0] += c
            theta -= c

        # --- overdispersion effects, all at once (conditionally independent)
        if spec.include_overdispersion:
            eps = phi_sd * rng.standard_normal(s_count)
            lik = y * eps - exp_eta * np.expm1(eps)
            pri = -((phi + eps) ** 2 - phi**2) / (2 * sigma2)
            accept = np.log(rng.random(s_count)) < lik + pri
            phi += eps * accept
            eta += eps * accept
            exp_eta = np.exp(eta)
            accepted["phi"] += int(accept.sum())
            proposed["phi"] += s_count

            # coefficient shift: beta + delta, phi - X delta (eta unchanged),
            # delta ~ N(P^-1 r, P^-1) with r = X' phi / sigma2 - beta / V
            lam = xtx_val / sigma2 + 1 / v_beta
            r = spec.x.T @ phi / sigma2 - beta / v_beta
            delta = xtx_vec @ ((xtx_vec.T @ r) / lam + rng.standard_normal(p) / np.sqrt(lam))
            beta += delta
            phi -= spec.x @ delta

        # --- variances, conjugate inverse-gamma
        if spec.include_spatial and spec.fix_tau2 is None:
            quad = float(deg @ theta**2 - rho * (theta @ (w_sparse @ theta)))
            shape = spec.prior_ig_shape + n_units / 2
            rate = spec.prior_ig_scale + quad / 2
            tau2 = rate / rng.gamma(shape)
        if spec.include_overdispersion and spec.fix_sigma2 is None:
            shape = spec.prior_ig_shape + s_count / 2
            rate = spec.prior_ig_scale + float(phi @ phi) / 2
            sigma2 = rate / rng.gamma(shape)

        # --- spatial dependence, bounded random walk on [0, 1)
        if spec.include_spatial:
            rho_new = rho + rho_step * rng.standard_normal()
            u = rng.random()
            accept = False
            if 0.0 <= rho_new < 1.0:
                quad_w = float(theta @ (w_sparse @ theta))
                quad_d = float(deg @ theta**2)
                log_r = 0.5 * (plan.log_det(rho_new) - plan.log_det(rho)) - (
                    (quad_d - rho_new * quad_w) - (quad_d - rho * quad_w)
                ) / (2 * tau2)
                accept = math.log(u) < log_r
            if accept:
                rho = rho_new
            accepted["rho"] += accept
            proposed["rho"] += 1

        if in_burnin and sweep % _ADAPT_WINDOW == 0:
            nudge = 0.15 if (accepted["rho"] - rho_seen) / _ADAPT_WINDOW > _TARGET_ACCEPT else -0.15
            rho_step = min(max(rho_step * math.exp(nudge), 1e-4), 50.0)
            rho_seen = accepted["rho"]
            beta_root, theta_sd, phi_sd = _proposal_shapes(spec, exp_eta, tau2, sigma2)

        if not in_burnin and (sweep - mcmc.burnin) % mcmc.thin == 0 and stored < n_stored:
            store_beta[stored] = beta
            if spec.include_spatial:
                store_theta[stored] = theta
            if spec.include_overdispersion:
                store_phi[stored] = phi
            store_tau2[stored] = tau2
            store_sigma2[stored] = sigma2
            store_rho[stored] = rho
            stored += 1

    rates = {b: accepted[b] / proposed[b] if proposed[b] else float("nan") for b in accepted}
    return PosteriorDraws(
        colnames=list(spec.colnames),
        beta=store_beta,
        theta=store_theta,
        phi=store_phi,
        tau2=store_tau2,
        sigma2=store_sigma2,
        rho=store_rho,
        mcmc=mcmc,
        accept_rates=rates,
    )


# ---------------------------------------------------------------------------
# draw persistence


def write_draws(draws: PosteriorDraws, path) -> None:
    """One row per stored iteration, named columns, 10 significant digits."""
    header = ["iteration"] + [f"beta:{c}" for c in draws.colnames] + ["tau2", "sigma2", "rho"]
    rows = (
        [k, *map(fmt, draws.beta[k]), *map(fmt, (draws.tau2[k], draws.sigma2[k], draws.rho[k]))]
        for k in range(draws.n_stored)
    )
    write_table(path, header, rows)
