"""Top-down disclosure avoidance: noise injection and hierarchical post-processing.

Formally-private integer noise is added to every tabulation cell at every
geolevel below the root, then estimates are reconciled top-down so children
sum to their parents, all cells end up non-negative integers, and the root
stays at truth. Multi-pass variants anchor unit total populations first and
fit the age-by-group detail subject to those totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ProtectionError
from .tables import fmt, write_table
from .tabulation import TabulationCube, leveled_cubes, unit_totals

TOTALS_LABEL = "__all__"


# ---------------------------------------------------------------------------
# noise families


def dlaplace_variance(eps: float) -> float:
    """Variance of the two-sided geometric with pmf proportional to exp(-eps*|k|)."""
    q = math.exp(-eps)
    return 2.0 * q / (1.0 - q) ** 2


def _sample_dlaplace(eps: float, n: int, rng: np.random.Generator) -> np.ndarray:
    # difference of two iid geometric (failure-count) variables with p = 1 - e^-eps
    p = -math.expm1(-eps)
    g1 = rng.geometric(p, size=n) - 1
    g2 = rng.geometric(p, size=n) - 1
    return (g1 - g2).astype(np.int64)


def _sample_dgauss(sigma2: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exact discrete Gaussian on the integers via rejection from a discrete Laplace."""
    sigma = math.sqrt(sigma2)
    t = math.floor(sigma) + 1
    out = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        m = max(2 * (n - filled), 64)
        y = _sample_dlaplace(1.0 / t, m, rng)
        accept_p = np.exp(-((np.abs(y) - sigma2 / t) ** 2) / (2.0 * sigma2))
        keep = y[rng.random(m) < accept_p]
        take = min(len(keep), n - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


NOISE_FAMILIES = ("discrete-laplace", "discrete-gaussian")


@dataclass(frozen=True)
class NoiseModel:
    """Integer noise family; scale per query is derived from its allocated epsilon.

    The discrete Gaussian is calibrated to match the discrete Laplace variance
    at the same epsilon, so the family acts as a pure shape-robustness knob.
    """

    family: str = "discrete-laplace"

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ProtectionError(f"unknown noise family {self.family!r}")

    def variance(self, eps: float) -> float:
        return dlaplace_variance(eps)

    def sample(self, eps: float, n: int, rng: np.random.Generator) -> np.ndarray:
        if not (eps > 0) or not math.isfinite(eps):
            raise ProtectionError(f"per-query epsilon must be positive and finite, got {eps}")
        if self.family == "discrete-laplace":
            return _sample_dlaplace(eps, n, rng)
        return _sample_dgauss(dlaplace_variance(eps), n, rng)


# ---------------------------------------------------------------------------
# budgets and configuration


def _check_shares(shares, what: str) -> tuple[float, ...]:
    shares = tuple(float(s) for s in shares)
    if any(not (0.0 < s <= 1.0) for s in shares):
        raise ProtectionError(f"{what} must lie in (0, 1], got {shares}")
    if abs(sum(shares) - 1.0) > 1e-12:
        raise ProtectionError(f"{what} must sum to 1, got sum {sum(shares)!r}")
    return shares


@dataclass(frozen=True)
class PrivacyBudget:
    """Total epsilon for the population tables and how it splits across
    geolevels (and across passes for multi-pass variants)."""

    epsilon_total: float
    level_shares: tuple[float, ...] | None = None
    pass_shares: tuple[float, ...] | None = None

    def __post_init__(self):
        if not (self.epsilon_total > 0):
            raise ProtectionError(f"epsilon_total must be positive, got {self.epsilon_total}")
        if self.level_shares is not None:
            object.__setattr__(self, "level_shares", _check_shares(self.level_shares, "level shares"))
        if self.pass_shares is not None:
            shares = _check_shares(self.pass_shares, "pass shares")
            if len(shares) != 2:
                raise ProtectionError("pass shares must have exactly two entries (totals, detail)")
            object.__setattr__(self, "pass_shares", shares)

    @property
    def infinite(self) -> bool:
        return math.isinf(self.epsilon_total)

    @property
    def multi_pass(self) -> bool:
        return self.pass_shares is not None

    def level_epsilons(self, n_levels: int) -> np.ndarray:
        """Epsilon per geolevel, root included (its grand total stays exact,
        but its histogram detail is still a noisy query)."""
        if self.level_shares is None:
            shares = np.full(n_levels, 1.0 / n_levels)
        else:
            if len(self.level_shares) != n_levels:
                raise ProtectionError(
                    f"{len(self.level_shares)} level shares for {n_levels} levels"
                )
            shares = np.asarray(self.level_shares)
        return self.epsilon_total * shares


# variant -> (epsilon_total, multi-pass). v19/v20 share one population-table
# budget and differ only in post-processing; v22 raises the budget
# substantially. v19 is single-pass, the others multi-pass.
PRESETS = {"v19": (4.0, False), "v20": (4.0, True), "v22": (20.82, True)}
# the order keys each variant's DAS seed in the pipeline
VARIANTS = (*PRESETS, "custom")


@dataclass(frozen=True)
class DasConfig:
    variant: str
    budget: PrivacyBudget
    noise: NoiseModel = field(default_factory=NoiseModel)
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ProtectionError(f"unknown variant {self.variant!r}")
        if self.variant in PRESETS and not self.budget.infinite:
            want, multi_pass = PRESETS[self.variant]
            if abs(self.budget.epsilon_total - want) > 1e-9:
                raise ProtectionError(
                    f"variant {self.variant} pins epsilon_total={want}, got {self.budget.epsilon_total}"
                )
            if self.budget.multi_pass != multi_pass:
                mode = "multi-pass" if multi_pass else "single-pass"
                raise ProtectionError(f"variant {self.variant} is {mode}")


def das_preset(
    variant: str,
    seed: int = 0,
    noise_family: str = "discrete-laplace",
    level_shares=None,
    pass_shares=None,
) -> DasConfig:
    """Build one of the pinned variant configurations."""
    if variant not in PRESETS:
        raise ProtectionError(f"no preset for variant {variant!r}")
    eps, multi_pass = PRESETS[variant]
    if multi_pass:
        passes = tuple(pass_shares) if pass_shares is not None else (0.5, 0.5)
    else:
        if pass_shares is not None:
            raise ProtectionError(f"variant {variant} is single-pass")
        passes = None
    budget = PrivacyBudget(
        eps,
        tuple(level_shares) if level_shares is not None else None,
        passes,
    )
    return DasConfig(variant, budget, NoiseModel(noise_family), seed)


# ---------------------------------------------------------------------------
# noisy measurements


@dataclass
class NoisyMeasurements:
    """Real-valued noisy cubes per rank (and noisy unit totals for multi-pass)."""

    detail: dict[int, np.ndarray]
    totals: dict[int, np.ndarray] | None
    epsilons: dict[tuple[int, str], float]
    detail_noise: dict[int, np.ndarray]
    totals_noise: dict[int, np.ndarray] | None


def _rng_for(seed: int, rank: int, pass_name: str) -> np.random.Generator:
    # counter-style keying: the stream depends only on (seed, rank, pass),
    # never on evaluation order, so parallel schedules cannot change results
    pass_id = {"detail": 0, "totals": 1}[pass_name]
    return np.random.default_rng(np.random.SeedSequence([seed, rank, pass_id]))


def inject_noise(cubes: dict[int, TabulationCube], config: DasConfig) -> NoisyMeasurements:
    """Add independent per-cell noise at every geolevel, root included.

    Requires a cube for every rank of the hierarchy. With an infinite budget
    the measurements equal the truth. For multi-pass configs the per-level
    budget splits between a unit-totals query and the detail histogram; the
    root total itself is an exact invariant, so no totals query is taken
    there and only its detail share is spent.
    """
    h = next(iter(cubes.values())).hierarchy
    ranks = list(range(h.depth))
    for rank in ranks:
        if rank not in cubes:
            raise ProtectionError(f"missing cube for rank {rank}")

    budget = config.budget
    detail: dict[int, np.ndarray] = {}
    totals: dict[int, np.ndarray] | None = None
    detail_noise: dict[int, np.ndarray] = {}
    totals_noise: dict[int, np.ndarray] | None = None
    epsilons: dict[tuple[int, str], float] = {}

    if budget.multi_pass:
        totals = {0: unit_totals(cubes[0]).copy()}
        totals_noise = {}

    if budget.infinite:
        for rank in ranks:
            detail[rank] = cubes[rank].values.copy()
            if totals is not None and rank > 0:
                totals[rank] = unit_totals(cubes[rank]).copy()
        return NoisyMeasurements(detail, totals, epsilons, detail_noise, totals_noise)

    eps_levels = budget.level_epsilons(len(ranks))
    for rank in ranks:
        cube = cubes[rank]
        eps_l = float(eps_levels[rank])
        if budget.multi_pass:
            eps_tot = eps_l * budget.pass_shares[0]
            eps_det = eps_l * budget.pass_shares[1]
        else:
            eps_tot, eps_det = None, eps_l

        rng = _rng_for(config.seed, rank, "detail")
        noise = config.noise.sample(eps_det, cube.values.size, rng).reshape(cube.values.shape)
        detail[rank] = cube.values + noise
        detail_noise[rank] = noise
        epsilons[(rank, "detail")] = eps_det

        if budget.multi_pass and rank > 0:
            true_tot = unit_totals(cube)
            rng = _rng_for(config.seed, rank, "totals")
            tnoise = config.noise.sample(eps_tot, true_tot.size, rng)
            totals[rank] = true_tot + tnoise
            totals_noise[rank] = tnoise
            epsilons[(rank, "totals")] = eps_tot

    return NoisyMeasurements(detail, totals, epsilons, detail_noise, totals_noise)


# ---------------------------------------------------------------------------
# post-processing primitives


def project_children(parent_value: float, noisy_children: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of noisy child values onto the simplex
    {x >= 0, sum(x) = parent_value}.

    Solves argmin sum((x - z)^2) by the sorted-threshold form of the KKT
    conditions: x = max(z + tau, 0) with tau chosen so the sum constraint
    holds after clamping.
    """
    z = np.asarray(noisy_children, dtype=float)
    if z.ndim != 1 or z.size == 0:
        raise ProtectionError("noisy_children must be a non-empty vector")
    if parent_value < 0:
        raise ProtectionError(f"parent value must be non-negative, got {parent_value}")
    u = np.sort(z)[::-1]
    cumsum = np.cumsum(u)
    j = np.arange(1, z.size + 1)
    tau_candidates = (parent_value - cumsum) / j
    active = u + tau_candidates > 0
    k = int(np.max(np.flatnonzero(active))) + 1 if active.any() else 1
    tau = (parent_value - cumsum[k - 1]) / k
    return np.maximum(z + tau, 0.0)


def controlled_round(values: np.ndarray, target_sum: int) -> np.ndarray:
    """Integerize non-negative reals to hit ``target_sum`` exactly.

    Largest-remainder allocation: every entry lands on its floor or ceiling,
    ceilings go to the largest fractional remainders, ties broken by
    ascending position.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ProtectionError("values must be a non-empty vector")
    if np.any(x < -1e-9):
        raise ProtectionError("values must be non-negative")
    x = np.maximum(x, 0.0)
    target = int(target_sum)
    if target < 0:
        raise ProtectionError(f"target sum must be non-negative, got {target_sum}")
    if abs(x.sum() - target) >= x.size:
        raise ProtectionError(
            f"sum {x.sum()!r} too far from target {target} for {x.size} values"
        )
    floors = np.floor(x).astype(np.int64)
    frac = x - floors
    extra = target - int(floors.sum())
    n_frac = int(np.count_nonzero(frac > 0))
    if extra < 0 or extra > n_frac:
        raise ProtectionError(
            f"no floor/ceiling allocation reaches {target} from {x.tolist()}"
        )
    out = floors.copy()
    if extra:
        order = np.lexsort((np.arange(x.size), -frac))
        out[order[:extra]] += 1
    return out


# ---------------------------------------------------------------------------
# top-down reconciliation


@dataclass
class AuditRecord:
    """Reproducibility trail: budgets, raw noise, and the published levels."""

    variant: str
    seed: int
    epsilons: dict[tuple[int, str], float]
    detail_noise: dict[int, np.ndarray]
    totals_noise: dict[int, np.ndarray] | None
    published: dict[int, TabulationCube]
    published_totals: dict[int, np.ndarray] | None = None


def _reconcile_single(
    parent_pub: np.ndarray,
    noisy: np.ndarray,
    parent_ids: list[str],
    child_ids: list[str],
    children_of: dict[str, list[str]],
    child_index: dict[str, int],
) -> np.ndarray:
    """Per-stratum projection and rounding of every sibling group."""
    n_a, n_g = parent_pub.shape[1:]
    out = np.zeros((len(child_ids), n_a, n_g))
    for p, pid in enumerate(parent_ids):
        kids = np.array([child_index[c] for c in children_of[pid]], dtype=int)
        for a in range(n_a):
            for g in range(n_g):
                target = int(parent_pub[p, a, g])
                x = project_children(target, noisy[kids, a, g])
                out[kids, a, g] = controlled_round(x, target)
    return out


def _repair_rows(y: np.ndarray, row_targets: np.ndarray, x_cont: np.ndarray) -> None:
    """Move single units between sibling rows, within a column, until every
    row hits its total; picks the move that best reduces deviation from the
    continuous solution. In-place on ``y``."""
    row_sums = y.sum(axis=1)
    while True:
        diff = row_sums - row_targets
        if not diff.any():
            return
        donor = int(np.argmax(diff))
        taker = int(np.argmin(diff))
        gain = (y[donor] - x_cont[donor]) - (y[taker] - x_cont[taker])
        gain = np.where(y[donor] >= 1, gain, -np.inf)
        col = int(np.argmax(gain))
        y[donor, col] -= 1
        y[taker, col] += 1
        row_sums[donor] -= 1
        row_sums[taker] += 1


def _reconcile_multipass_level(
    parent_pub: np.ndarray,
    noisy: np.ndarray,
    pub_child_totals: np.ndarray,
    parent_ids: list[str],
    children_of: dict[str, list[str]],
    child_index: dict[str, int],
) -> np.ndarray:
    """Column constraints from the parent detail, row constraints from the
    already-published child totals."""
    n_a, n_g = parent_pub.shape[1:]
    n_child = pub_child_totals.size
    out = np.zeros((n_child, n_a, n_g))
    for p, pid in enumerate(parent_ids):
        kids = np.array([child_index[c] for c in children_of[pid]], dtype=int)
        x_cont = np.zeros((kids.size, n_a * n_g))
        y = np.zeros((kids.size, n_a * n_g), dtype=np.int64)
        flat = noisy[kids].reshape(kids.size, n_a * n_g)
        parent_flat = parent_pub[p].reshape(-1)
        for s in range(n_a * n_g):
            target = int(parent_flat[s])
            x = project_children(target, flat[:, s])
            x_cont[:, s] = x
            y[:, s] = controlled_round(x, target)
        targets = pub_child_totals[kids].astype(np.int64)
        if int(y.sum()) != int(targets.sum()):
            raise ProtectionError(
                "pass inconsistency: parent detail does not match child totals"
            )
        _repair_rows(y, targets, x_cont)
        out[kids] = y.reshape(kids.size, n_a, n_g)
    return out


def run_topdown(true_cube: TabulationCube, config: DasConfig) -> tuple[TabulationCube, AuditRecord]:
    """Protect a leaf-level integer cube with the configured top-down mechanism.

    The root cube is held at truth (so the published grand total is exact);
    below it, every published parent cell equals the sum of its published
    children and all cells are non-negative integers. Single-pass variants
    reconcile the full age-by-group histogram per level; multi-pass variants
    first publish unit total populations, then fit the detail so each unit's
    histogram sums to its published total.
    """
    h = true_cube.hierarchy
    if not true_cube.integer_valued:
        raise ProtectionError("true cube must be integer valued")
    if true_cube.rank != h.depth - 1:
        raise ProtectionError("true cube must sit at the leaf level")

    cubes = leveled_cubes(true_cube)
    measurements = inject_noise(cubes, config)

    if config.budget.infinite:
        audit = AuditRecord(config.variant, config.seed, {}, {}, None, dict(cubes))
        return true_cube, audit

    # the root grand total is the mechanism's one exact invariant: the noisy
    # root histogram is fit subject to it, and everything below reconciles
    # to the published root
    grand_total = int(round(cubes[0].total))
    root_noisy = measurements.detail[0].reshape(-1)
    root_vals = controlled_round(project_children(grand_total, root_noisy), grand_total)
    published: dict[int, TabulationCube] = {
        0: cubes[0].with_values(root_vals.reshape(cubes[0].values.shape), integer_valued=True)
    }
    children_of = {uid: h.children(uid) for uid in (u.id for u in h.units)}
    pub_totals: dict[int, np.ndarray] | None = None

    if not config.budget.multi_pass:
        for rank in range(1, h.depth):
            parent_ids = h.units_at(rank - 1)
            child_ids = h.units_at(rank)
            child_index = {uid: i for i, uid in enumerate(child_ids)}
            vals = _reconcile_single(
                published[rank - 1].values,
                measurements.detail[rank],
                parent_ids,
                child_ids,
                children_of,
                child_index,
            )
            published[rank] = cubes[rank].with_values(vals, integer_valued=True)
    else:
        # pass 1: unit totals, reconciled top-down; the root total is truth
        pub_totals = {0: unit_totals(cubes[0]).astype(np.int64)}
        for rank in range(1, h.depth):
            parent_ids = h.units_at(rank - 1)
            child_ids = h.units_at(rank)
            child_index = {uid: i for i, uid in enumerate(child_ids)}
            out = np.zeros(len(child_ids), dtype=np.int64)
            noisy_tot = measurements.totals[rank]
            for p, pid in enumerate(parent_ids):
                kids = np.array([child_index[c] for c in children_of[pid]], dtype=int)
                target = int(pub_totals[rank - 1][p])
                x = project_children(target, noisy_tot[kids])
                out[kids] = controlled_round(x, target)
            pub_totals[rank] = out
        # pass 2: detail constrained by parent detail and own published total
        for rank in range(1, h.depth):
            parent_ids = h.units_at(rank - 1)
            child_ids = h.units_at(rank)
            child_index = {uid: i for i, uid in enumerate(child_ids)}
            vals = _reconcile_multipass_level(
                published[rank - 1].values,
                measurements.detail[rank],
                pub_totals[rank],
                parent_ids,
                children_of,
                child_index,
            )
            published[rank] = cubes[rank].with_values(vals, integer_valued=True)

    audit = AuditRecord(
        config.variant,
        config.seed,
        measurements.epsilons,
        measurements.detail_noise,
        measurements.totals_noise,
        published,
        pub_totals if config.budget.multi_pass else None,
    )
    return published[h.depth - 1], audit


# ---------------------------------------------------------------------------
# audit file


def write_audit(audit: AuditRecord, path) -> None:
    """Per-cell epsilon and raw noise for every noisy query, totals flagged
    with the reserved band/group label."""

    def rows():
        for rank in sorted(audit.detail_noise):
            cube = audit.published[rank]
            eps = fmt(audit.epsilons[(rank, "detail")])
            noise = audit.detail_noise[rank]
            for i, uid in enumerate(cube.unit_ids):
                for a, band in enumerate(cube.ages.bands):
                    for g, group in enumerate(cube.groups.groups):
                        yield [uid, band, group, eps, int(noise[i, a, g])]
        for rank in sorted(audit.totals_noise or {}):
            eps = fmt(audit.epsilons[(rank, "totals")])
            for uid, n in zip(audit.published[rank].unit_ids, audit.totals_noise[rank]):
                yield [uid, TOTALS_LABEL, TOTALS_LABEL, eps, int(n)]

    write_table(path, ["unit_id", "age_band", "group", "epsilon", "noise"], rows())
