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
from .tables import fmt, write_cells
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


def sample_noise(family: str, eps: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` integer noise draws of ``family`` for a query with budget ``eps``.

    The discrete Gaussian is calibrated to match the discrete Laplace variance
    at the same epsilon, so the family acts as a pure shape-robustness knob.
    """
    if not (eps > 0) or not math.isfinite(eps):
        raise ProtectionError(f"per-query epsilon must be positive and finite, got {eps}")
    if family == "discrete-laplace":
        return _sample_dlaplace(eps, n, rng)
    return _sample_dgauss(dlaplace_variance(eps), n, rng)


# ---------------------------------------------------------------------------
# configuration


def _check_shares(shares, what: str) -> tuple[float, ...]:
    shares = tuple(float(s) for s in shares)
    if any(not (0.0 < s <= 1.0) for s in shares):
        raise ProtectionError(f"{what} must lie in (0, 1], got {shares}")
    if abs(sum(shares) - 1.0) > 1e-12:
        raise ProtectionError(f"{what} must sum to 1, got sum {sum(shares)!r}")
    return shares


# variant -> (epsilon_total, multi-pass). v19/v20 share one population-table
# budget and differ only in post-processing; v22 raises the budget
# substantially. v19 is single-pass, the others multi-pass.
PRESETS = {"v19": (4.0, False), "v20": (4.0, True), "v22": (20.82, True)}
# the order keys each variant's DAS seed in the pipeline
VARIANTS = (*PRESETS, "custom")


@dataclass(frozen=True)
class DasConfig:
    """One setting of the mechanism: the total epsilon for the population
    tables, how it splits across geolevels (and across passes for
    multi-pass variants), the integer noise family and the noise seed."""

    variant: str
    epsilon_total: float
    level_shares: tuple[float, ...] | None = None
    pass_shares: tuple[float, ...] | None = None
    noise_family: str = "discrete-laplace"
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ProtectionError(f"unknown variant {self.variant!r}")
        if not (self.epsilon_total > 0):
            raise ProtectionError(f"epsilon_total must be positive, got {self.epsilon_total}")
        if self.level_shares is not None:
            object.__setattr__(self, "level_shares", _check_shares(self.level_shares, "level shares"))
        if self.pass_shares is not None:
            shares = _check_shares(self.pass_shares, "pass shares")
            if len(shares) != 2:
                raise ProtectionError("pass shares must have exactly two entries (totals, detail)")
            object.__setattr__(self, "pass_shares", shares)
        if self.noise_family not in NOISE_FAMILIES:
            raise ProtectionError(f"unknown noise family {self.noise_family!r}")
        if self.variant in PRESETS and not self.infinite:
            want, multi_pass = PRESETS[self.variant]
            if abs(self.epsilon_total - want) > 1e-9:
                raise ProtectionError(
                    f"epsilon_total {self.epsilon_total} differs from the {want} that variant "
                    f"{self.variant} pins; use 'inf', the pinned value or variant 'custom'"
                )
            if self.multi_pass != multi_pass:
                mode = "multi-pass" if multi_pass else "single-pass"
                raise ProtectionError(f"variant {self.variant} is {mode}")

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


def das_preset(
    variant: str,
    seed: int = 0,
    noise_family: str = "discrete-laplace",
    level_shares=None,
    pass_shares=None,
    epsilon_total=None,
) -> DasConfig:
    """The configuration of any variant. ``custom`` requires
    ``epsilon_total``; a preset keeps its pinned budget unless given one,
    which :class:`DasConfig` holds to the pin or to infinity, and a
    multi-pass preset splits each level's budget evenly between totals and
    detail unless given ``pass_shares``."""
    if variant == "custom" and epsilon_total is None:
        raise ProtectionError("variant 'custom' requires epsilon_total")
    if variant in PRESETS:
        pinned, multi_pass = PRESETS[variant]
        epsilon_total = pinned if epsilon_total is None else epsilon_total
        pass_shares = (0.5, 0.5) if multi_pass and pass_shares is None else pass_shares
    return DasConfig(variant, epsilon_total, level_shares, pass_shares, noise_family, seed)


# ---------------------------------------------------------------------------
# noisy measurements


@dataclass
class AuditRecord:
    """Reproducibility trail: the epsilon and raw integer noise of every
    noisy query, as :func:`inject_noise` draws them, and the published
    levels, as :func:`run_topdown` fills them in."""

    epsilons: dict[tuple[int, str], float]
    detail_noise: dict[int, np.ndarray]
    totals_noise: dict[int, np.ndarray] | None
    published: dict[int, TabulationCube] = field(default_factory=dict)
    published_totals: dict[int, np.ndarray] | None = None


def _rng_for(seed: int, rank: int, pass_name: str) -> np.random.Generator:
    # counter-style keying: the stream depends only on (seed, rank, pass),
    # never on evaluation order, so parallel schedules cannot change results
    pass_id = {"detail": 0, "totals": 1}[pass_name]
    return np.random.default_rng(np.random.SeedSequence([seed, rank, pass_id]))


def inject_noise(cubes: dict[int, TabulationCube], config: DasConfig) -> AuditRecord:
    """Draw independent per-cell noise at every geolevel, root included.

    Requires a cube for every rank of the hierarchy and a finite budget (an
    infinite one raises ProtectionError). For multi-pass configs the
    per-level budget splits between a unit-totals query and the detail
    histogram; the root total itself is an exact invariant, so no totals
    query is taken there and only its detail share is spent.
    """
    h = next(iter(cubes.values())).hierarchy
    ranks = list(range(h.depth))
    for rank in ranks:
        if rank not in cubes:
            raise ProtectionError(f"missing cube for rank {rank}")

    audit = AuditRecord({}, {}, {} if config.multi_pass else None)
    eps_levels = config.level_epsilons(len(ranks))
    for rank in ranks:
        cube = cubes[rank]
        eps_l = float(eps_levels[rank])
        eps_det = eps_l * config.pass_shares[1] if config.multi_pass else eps_l
        rng = _rng_for(config.seed, rank, "detail")
        noise = sample_noise(config.noise_family, eps_det, cube.values.size, rng)
        audit.detail_noise[rank] = noise.reshape(cube.values.shape)
        audit.epsilons[(rank, "detail")] = eps_det

        if config.multi_pass and rank > 0:
            eps_tot = eps_l * config.pass_shares[0]
            rng = _rng_for(config.seed, rank, "totals")
            audit.totals_noise[rank] = sample_noise(config.noise_family, eps_tot, len(cube.unit_ids), rng)
            audit.epsilons[(rank, "totals")] = eps_tot

    return audit


# ---------------------------------------------------------------------------
# post-processing primitives


def project_children(parent_value: float | np.ndarray, noisy_children: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of noisy child values onto the simplex
    {x >= 0, sum(x) = parent_value}.

    Solves argmin sum((x - z)^2) by the sorted-threshold form of the KKT
    conditions: x = max(z + tau, 0) with tau chosen so the sum constraint
    holds after clamping (Duchi et al. 2008).

    Takes one vector, or a batch of rows with one parent value each, every
    row's children first and NaN padding after them; the padding stays NaN.
    A row's result does not depend on the other rows or the padding width.
    """
    z = np.asarray(noisy_children, dtype=float)
    single = z.ndim == 1
    z = np.atleast_2d(z)
    parent = np.atleast_1d(np.asarray(parent_value, dtype=float))
    if z.ndim != 2 or z.shape[1] == 0 or np.isnan(z[:, 0]).any():
        raise ProtectionError("noisy_children must be a non-empty vector or rows")
    if parent.shape != z.shape[:1]:
        raise ProtectionError(f"{parent.size} parent values for {len(z)} rows")
    if np.any(parent < 0):
        raise ProtectionError(f"parent value must be non-negative, got {parent.min()}")
    u = -np.sort(-z, axis=1)  # descending, padding last
    cumsum = np.cumsum(u, axis=1)
    j = np.arange(1, z.shape[1] + 1)
    active = u + (parent[:, None] - cumsum) / j > 0
    # k: the last active position, counted from 1
    k = np.where(active.any(axis=1), z.shape[1] - np.argmax(active[:, ::-1], axis=1), 1)
    tau = (parent - cumsum[np.arange(len(z)), k - 1]) / k
    x = np.maximum(z + tau[:, None], 0.0)
    return x[0] if single else x


def controlled_round(values: np.ndarray, target_sum: int | np.ndarray) -> np.ndarray:
    """Integerize non-negative reals to hit ``target_sum`` exactly.

    Largest-remainder allocation: every entry lands on its floor or ceiling,
    ceilings go to the largest fractional remainders, ties broken by
    ascending position. Takes one vector, or NaN-padded rows as
    :func:`project_children` returns them with one target per row; padding
    comes back as 0.
    """
    x = np.asarray(values, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.ndim != 2 or x.shape[1] == 0 or np.isnan(x[:, 0]).any():
        raise ProtectionError("values must be a non-empty vector or rows")
    if np.any(x < -1e-9):
        raise ProtectionError("values must be non-negative")
    pad = np.isnan(x)
    x = np.where(pad, 0.0, np.maximum(x, 0.0))
    target = np.atleast_1d(np.asarray(target_sum)).astype(np.int64)
    if target.shape != x.shape[:1]:
        raise ProtectionError(f"{target.size} targets for {len(x)} rows")
    if np.any(target < 0):
        raise ProtectionError(f"target sum must be non-negative, got {target.min()}")
    n = np.count_nonzero(~pad, axis=1)
    far = np.flatnonzero(np.abs(x.sum(axis=1) - target) >= n)
    if far.size:
        r = far[0]
        raise ProtectionError(f"sum {x[r].sum()!r} too far from target {target[r]} for {n[r]} values")
    floors = np.floor(x).astype(np.int64)
    frac = x - floors
    extra = target - floors.sum(axis=1)
    stuck = np.flatnonzero((extra < 0) | (extra > np.count_nonzero(frac > 0, axis=1)))
    if stuck.size:
        r = stuck[0]
        raise ProtectionError(f"no floor/ceiling allocation reaches {target[r]} from {x[r, ~pad[r]].tolist()}")
    # each entry's place by descending remainder, ties by ascending position
    place = np.empty_like(floors)
    np.put_along_axis(place, np.argsort(-frac, axis=1, kind="stable"), np.arange(x.shape[1])[None, :], axis=1)
    out = floors + (place < extra[:, None])
    return out[0] if single else out


# ---------------------------------------------------------------------------
# top-down reconciliation


def _reconcile(
    parent_pub: np.ndarray, noisy: np.ndarray, parent_idx: np.ndarray, totals: np.ndarray | None = None
) -> np.ndarray:
    """Fit every sibling group of a level to its published parent cells.

    ``parent_pub`` holds the P published parents' strata, ``noisy`` the C
    children's noisy strata (any trailing shape, flattened to S strata) and
    ``parent_idx`` each child's parent row. Each (parent, stratum) pair is
    one row of a single batched projection and rounding, its children in
    hierarchy order. Returns the rounding, (C, S).

    With ``totals``, each child's published total, the rounding is then
    repaired so every child's strata also sum to its total. Each step moves
    one person in every sibling group still off, within one stratum so the
    parent cells stay matched: from the first child with the largest excess
    to the first with the largest deficit, in the first stratum with the
    largest gain toward the continuous projection where the donor holds one.
    """
    parent_pub = parent_pub.reshape(len(parent_pub), -1)
    noisy = noisy.reshape(len(noisy), -1)
    n_parents, n_strata = parent_pub.shape
    sizes = np.bincount(parent_idx, minlength=n_parents)
    order = np.argsort(parent_idx, kind="stable")
    col = np.empty_like(order)  # each child's place within its sibling group
    col[order] = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    z = np.full((n_parents, n_strata, sizes.max()), np.nan)
    z[parent_idx, :, col] = noisy
    x = project_children(parent_pub.reshape(-1), z.reshape(-1, z.shape[2]))
    y = controlled_round(x, parent_pub.reshape(-1)).reshape(z.shape)
    x = x.reshape(z.shape)
    if totals is not None:
        excess = y.sum(axis=1)  # (P, child slot); padding slots stay 0
        excess[parent_idx, col] -= totals
        if excess.sum(axis=1).any():
            raise ProtectionError("pass inconsistency: parent detail does not match child totals")
        g = np.flatnonzero(excess.any(axis=1))
        while g.size:
            donor, taker = excess[g].argmax(axis=1), excess[g].argmin(axis=1)
            gain = (y[g, :, donor] - x[g, :, donor]) - (y[g, :, taker] - x[g, :, taker])
            s = np.where(y[g, :, donor] >= 1, gain, -np.inf).argmax(axis=1)
            y[g, s, donor] -= 1
            y[g, s, taker] += 1
            excess[g, donor] -= 1
            excess[g, taker] += 1
            g = g[excess[g].any(axis=1)]
    return y[parent_idx, :, col]


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
    if true_cube.rank != h.depth - 1:
        raise ProtectionError("true cube must sit at the leaf level")

    cubes = leveled_cubes(true_cube)
    if config.infinite:
        return true_cube, AuditRecord({}, {}, None, dict(cubes))
    audit = inject_noise(cubes, config)

    # the root grand total is the mechanism's one exact invariant: the noisy
    # root histogram is fit subject to it as one sibling group, and
    # everything below reconciles to the published root
    root_cells = (cubes[0].values + audit.detail_noise[0]).reshape(-1)
    root_total = np.array([int(round(cubes[0].total))])
    root_vals = _reconcile(root_total, root_cells, np.zeros(root_cells.size, dtype=np.intp))
    published = audit.published
    published[0] = cubes[0].with_values(root_vals.reshape(cubes[0].values.shape))
    if config.multi_pass:
        # pass 1: unit totals, reconciled top-down; the root total is truth
        pub_totals = audit.published_totals = {0: unit_totals(cubes[0]).astype(np.int64)}
        for rank in range(1, h.depth):
            noisy = unit_totals(cubes[rank]) + audit.totals_noise[rank]
            pub_totals[rank] = _reconcile(pub_totals[rank - 1], noisy, h.parent_index(rank))[:, 0]
    # the detail, constrained by the parent detail (and, in pass 2 of a
    # multi-pass variant, by each unit's own published total)
    for rank in range(1, h.depth):
        totals = None if audit.published_totals is None else audit.published_totals[rank]
        noisy = cubes[rank].values + audit.detail_noise[rank]
        y = _reconcile(published[rank - 1].values, noisy, h.parent_index(rank), totals)
        published[rank] = cubes[rank].with_values(y.reshape(cubes[rank].values.shape))
    return published[h.depth - 1], audit


# ---------------------------------------------------------------------------
# audit file


def write_audit(audit: AuditRecord, path) -> None:
    """Per-cell epsilon and raw noise for every noisy query, totals flagged
    with the reserved band/group label."""
    blocks = []
    for rank in sorted(audit.detail_noise):
        cube, eps = audit.published[rank], fmt(audit.epsilons[(rank, "detail")])
        axes = [cube.unit_ids, cube.ages.bands, cube.groups.groups, [eps]]
        blocks.append((axes, audit.detail_noise[rank].astype(np.int64)))
    for rank in sorted(audit.totals_noise or {}):
        eps = fmt(audit.epsilons[(rank, "totals")])
        axes = [audit.published[rank].unit_ids, [TOTALS_LABEL], [TOTALS_LABEL], [eps]]
        blocks.append((axes, audit.totals_noise[rank].astype(np.int64)))
    write_cells(path, ["unit_id", "age_band", "group", "epsilon", "noise"], blocks)
