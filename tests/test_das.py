import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmap.das import (
    NOISE_FAMILIES,
    PRESETS,
    DasConfig,
    NoiseModel,
    PrivacyBudget,
    _reconcile,
    controlled_round,
    das_preset,
    dlaplace_variance,
    inject_noise,
    project_children,
    run_topdown,
    write_audit,
)
from privmap.errors import ProtectionError
from privmap.geo import Hierarchy, build_synthetic_geography
from privmap.tabulation import (
    AgeSchema,
    GroupSchema,
    TabulationCube,
    aggregate,
    leveled_cubes,
    unit_totals,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# noise families


def test_dlaplace_pmf_point_mass_at_zero():
    # P(X=0) = (1-q)/(1+q); at eps = ln 3 this is exactly 1/2, verified by
    # normalizing exp(-eps*|k|) over k in [-50, 50]
    eps = math.log(3)
    ks = np.arange(-50, 51)
    pmf = np.exp(-eps * np.abs(ks))
    pmf = pmf / pmf.sum()
    assert pmf[50] == pytest.approx(0.5, abs=1e-12)
    draws = NoiseModel("discrete-laplace").sample(eps, 200_000, rng(1))
    assert np.mean(draws == 0) == pytest.approx(0.5, abs=0.01)


def test_dlaplace_variance_monte_carlo():
    eps = 1.0
    target = dlaplace_variance(eps)
    assert target == pytest.approx(2 * math.exp(-1) / (1 - math.exp(-1)) ** 2, rel=1e-12)
    draws = NoiseModel("discrete-laplace").sample(eps, 1_000_000, rng(2))
    assert draws.var() == pytest.approx(target, rel=0.05)


def test_dgauss_variance_matches_calibration():
    # discrete gaussian is variance-matched to the discrete laplace family
    eps = 1.0
    draws = NoiseModel("discrete-gaussian").sample(eps, 400_000, rng(3))
    assert draws.var() == pytest.approx(dlaplace_variance(eps), rel=0.05)
    assert abs(draws.mean()) < 0.01


def test_sample_noise_rejects_bad_epsilon():
    model = NoiseModel()
    for eps in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ProtectionError):
            model.sample(eps, 10, rng(0))


def test_noise_family_validation():
    with pytest.raises(ProtectionError):
        NoiseModel("continuous-laplace")


# ---------------------------------------------------------------------------
# budgets


def test_budget_share_validation():
    with pytest.raises(ProtectionError):
        PrivacyBudget(4.0, level_shares=(0.5, 0.4))
    with pytest.raises(ProtectionError):
        PrivacyBudget(4.0, pass_shares=(0.5, 0.6))
    with pytest.raises(ProtectionError):
        PrivacyBudget(-1.0)
    b = PrivacyBudget(4.0, level_shares=(0.25, 0.25, 0.5))
    assert b.level_epsilons(3) == pytest.approx([1.0, 1.0, 2.0])


def test_equal_shares_arithmetic():
    # equal shares over a 3-level hierarchy split eps_total three ways
    b = PrivacyBudget(4.0)
    assert b.level_epsilons(3) == pytest.approx([4 / 3, 4 / 3, 4 / 3])


def test_presets_pin_epsilon_and_passes():
    v19 = das_preset("v19")
    assert v19.budget.epsilon_total == 4.0
    assert not v19.budget.multi_pass
    v20 = das_preset("v20")
    assert v20.budget.epsilon_total == 4.0
    assert v20.budget.pass_shares == (0.5, 0.5)
    v22 = das_preset("v22")
    assert v22.budget.epsilon_total == pytest.approx(20.82)
    assert v22.budget.multi_pass
    with pytest.raises(ProtectionError):
        DasConfig("v19", PrivacyBudget(5.0))
    with pytest.raises(ProtectionError):
        das_preset("v19", pass_shares=(0.5, 0.5))
    # one resolver for every variant: custom needs a budget, a preset's is
    # its pin or infinity
    assert das_preset("custom", epsilon_total=0.5).budget.epsilon_total == 0.5
    with pytest.raises(ProtectionError, match="custom"):
        das_preset("custom")
    with pytest.raises(ProtectionError, match=r"4\.0 differs from the 20\.82 that variant v22 pins"):
        das_preset("v22", epsilon_total=4.0)
    assert das_preset("v20", epsilon_total=math.inf).budget.pass_shares == (0.5, 0.5)


# ---------------------------------------------------------------------------
# projection and rounding primitives


def test_project_feasible_input_unchanged():
    out = project_children(10.0, np.array([4.0, 6.0]))
    assert out == pytest.approx([4.0, 6.0], abs=1e-12)


def grid_search_2(parent, z, step=0.01):
    xs = np.arange(0.0, parent + step, step)
    best, best_val = None, np.inf
    for x1 in xs:
        x2 = parent - x1
        val = (x1 - z[0]) ** 2 + (x2 - z[1]) ** 2
        if val < best_val:
            best, best_val = (x1, x2), val
    return np.array(best)


def test_project_two_children_against_grid():
    out = project_children(10.0, np.array([7.0, 7.0]))
    assert out == pytest.approx([5.0, 5.0], abs=1e-12)
    assert out == pytest.approx(grid_search_2(10.0, (7.0, 7.0)), abs=0.01)


def test_project_clamps_negative_child():
    # interior stationary point (12.5, -2.5) is infeasible; active set clamps
    out = project_children(10.0, np.array([12.0, -3.0]))
    assert out == pytest.approx([10.0, 0.0], abs=1e-12)
    assert out == pytest.approx(grid_search_2(10.0, (12.0, -3.0)), abs=0.01)


def active_set_oracle(parent, z):
    """Exact projection by brute force over all clamp patterns."""
    n = len(z)
    best, best_val = None, np.inf
    for pattern in itertools.product([0, 1], repeat=n):
        free = [i for i in range(n) if pattern[i]]
        if not free:
            continue
        x = np.zeros(n)
        shift = (parent - sum(z[i] for i in free)) / len(free)
        for i in free:
            x[i] = z[i] + shift
        if np.any(x < -1e-12):
            continue
        val = float(np.sum((x - z) ** 2))
        if val < best_val - 1e-12:
            best, best_val = x, val
    return best


def kkt_residual(parent, z, x):
    """Max violation of the projection's KKT system: stationarity requires
    2(x_i - z_i) = -nu on free coordinates, mu_i = -2 z_i + nu >= 0 on
    clamped ones, plus primal feasibility."""
    free = x > 1e-12
    if not free.any():
        return abs(x.sum() - parent)
    lam = 2 * (x[free] - z[free])
    res = float(np.ptp(lam)) if free.sum() > 1 else 0.0
    nu = -lam.mean()
    if (~free).any():
        mu = -2 * z[~free] + nu
        res = max(res, max(0.0, float(-mu.min())))
    res = max(res, abs(float(x.sum()) - parent))
    return res


def test_project_random_instances_match_enumeration_oracle():
    r = rng(7)
    for _ in range(300):
        n = int(r.integers(1, 7))
        parent = float(np.round(r.uniform(0, 12), 2))
        z = r.normal(parent / n, 3.0, n)
        x = project_children(parent, z)
        oracle = active_set_oracle(parent, z)
        assert x == pytest.approx(oracle, abs=1e-9)
        assert x.sum() == pytest.approx(parent, abs=1e-9)
        assert np.all(x >= 0)
        assert kkt_residual(parent, z, x) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 50),
    st.lists(st.floats(-20, 50, allow_nan=False), min_size=1, max_size=6),
)
def test_project_properties(parent, z):
    x = project_children(float(parent), np.array(z))
    assert np.all(x >= 0)
    assert x.sum() == pytest.approx(parent, abs=1e-9)


def test_controlled_round_spec_examples():
    # enumeration oracle: all floor/ceil combinations summing to the target
    def enum_oracle(vals, target):
        best = []
        best_l1 = np.inf
        for combo in itertools.product(*[(math.floor(v), math.ceil(v)) for v in vals]):
            if sum(combo) != target:
                continue
            l1 = sum(abs(a - b) for a, b in zip(combo, vals))
            if l1 < best_l1 - 1e-12:
                best, best_l1 = [list(combo)], l1
            elif abs(l1 - best_l1) <= 1e-12:
                best.append(list(combo))
        return best

    out = controlled_round(np.array([3.4, 6.6]), 10)
    assert out.tolist() in enum_oracle([3.4, 6.6], 10)
    assert out.tolist() == [3, 7]

    # equal remainders resolved by ascending position
    out = controlled_round(np.array([2.5, 2.5, 5.0]), 10)
    assert out.tolist() in enum_oracle([2.5, 2.5, 5.0], 10)
    assert out.tolist() == [3, 2, 5]


def test_controlled_round_integer_identity():
    vals = np.array([2.0, 0.0, 7.0])
    assert controlled_round(vals, 9).tolist() == [2, 0, 7]


def test_controlled_round_precondition_violation():
    with pytest.raises(ProtectionError):
        controlled_round(np.array([1.0, 1.0]), 9)
    with pytest.raises(ProtectionError):
        controlled_round(np.array([2.2, 2.1]), 3)  # no floor/ceil combo reaches 3


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0, 30, allow_nan=False), min_size=1, max_size=8))
def test_controlled_round_properties(vals):
    vals = np.array(vals)
    target = int(round(vals.sum()))
    out = controlled_round(vals, target)
    assert out.sum() == target
    assert np.all((out == np.floor(vals)) | (out == np.ceil(vals)))
    assert np.all(out >= 0)


def _project_one(parent_value, z):
    """Per-vector reference: the sorted-threshold projection of one sibling group."""
    u = np.sort(z)[::-1]
    cumsum = np.cumsum(u)
    active = u + (parent_value - cumsum) / np.arange(1, z.size + 1) > 0
    k = int(np.max(np.flatnonzero(active))) + 1 if active.any() else 1
    return np.maximum(z + (parent_value - cumsum[k - 1]) / k, 0.0)


def _round_one(x, target):
    """Per-vector reference: largest remainders, ties by ascending position."""
    floors = np.floor(x).astype(np.int64)
    frac = x - floors
    out = floors.copy()
    out[np.lexsort((np.arange(x.size), -frac))[: target - int(floors.sum())]] += 1
    return out


def test_batched_rows_match_single_rows_bit_for_bit():
    # ragged rows (fan-out 1-10) padded to one width: each row's projection
    # and rounding equal the one-row call and the per-vector reference exactly
    r = rng(12)
    sizes = r.integers(1, 11, 2000)
    targets = r.integers(0, 40, sizes.size)
    z = np.full((sizes.size, sizes.max()), np.nan)
    for i, n in enumerate(sizes):
        z[i, :n] = r.normal(targets[i] / n, 4.0, n)
    x = project_children(targets, z)
    y = controlled_round(x, targets)
    for i, n in enumerate(sizes):
        alone = project_children(targets[i], z[i, :n])
        assert x[i, :n].tobytes() == alone.tobytes() == _project_one(targets[i], z[i, :n]).tobytes()
        assert np.isnan(x[i, n:]).all()
        assert np.array_equal(y[i, :n], controlled_round(alone, targets[i]))
        assert np.array_equal(y[i, :n], _round_one(alone, targets[i]))
        assert not y[i, n:].any()


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


def _repair_one_group_at_a_time(parent_pub, noisy, parent_idx, totals):
    """Reference: the level reconciled without totals, then the greedy row
    repair on each sibling group whose children miss their totals."""
    y = _reconcile(parent_pub, noisy, parent_idx)
    for p in np.unique(parent_idx[y.sum(axis=1) != totals]):
        kids = np.flatnonzero(parent_idx == p)
        x = np.stack([_project_one(parent_pub[p, s], noisy[kids, s]) for s in range(noisy.shape[1])], axis=1)
        rows = y[kids]
        _repair_rows(rows, totals[kids], x)
        y[kids] = rows
    return y


def ragged_level(seed):
    """One level of ragged sibling groups (fan-out 1-10, children listed in
    shuffled order) with small, mostly-zero counts, noisy child strata, and
    per-child totals that sum to each parent's detail."""
    r = rng(seed)
    sizes = r.integers(1, 11, int(r.integers(1, 30)))
    parent_idx = r.permutation(np.repeat(np.arange(sizes.size), sizes))
    n_strata = int(r.integers(1, 7))
    truth = r.integers(0, 6, (parent_idx.size, n_strata)) * r.integers(0, 2, (parent_idx.size, n_strata))
    parent_pub = np.zeros((sizes.size, n_strata))
    np.add.at(parent_pub, parent_idx, truth)
    noisy = truth + r.integers(-3, 4, truth.shape)
    unrepaired = _reconcile(parent_pub, noisy, parent_idx).sum(axis=1)
    totals = np.empty(parent_idx.size, dtype=np.int64)
    for p, n in enumerate(sizes):
        kids = np.flatnonzero(parent_idx == p)
        if r.random() < 0.3:  # an already balanced group
            totals[kids] = unrepaired[kids]
        else:
            totals[kids] = r.multinomial(int(parent_pub[p].sum()), r.dirichlet(np.ones(n)))
    return parent_pub, noisy, parent_idx, totals


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_batched_repair_matches_greedy_per_group_bit_for_bit(seed):
    parent_pub, noisy, parent_idx, totals = ragged_level(seed)
    y = _reconcile(parent_pub, noisy, parent_idx, totals)
    ref = _repair_one_group_at_a_time(parent_pub, noisy, parent_idx, totals)
    assert y.dtype == ref.dtype and y.tobytes() == ref.tobytes()
    assert np.array_equal(y.sum(axis=1), totals)


def test_repair_rejects_totals_inconsistent_with_parent_detail():
    parent_pub, noisy, parent_idx, totals = ragged_level(3)
    totals[np.argmax(totals)] += 1
    with pytest.raises(ProtectionError, match="pass inconsistency"):
        _reconcile(parent_pub, noisy, parent_idx, totals)


# ---------------------------------------------------------------------------
# noisy measurements


@pytest.fixture
def small_cube():
    h, _ = build_synthetic_geography(12, [3, 4], "grid", seed=2)
    ages, groups = AgeSchema(("a", "b")), GroupSchema(("x", "y"))
    vals = rng(5).integers(0, 60, (12, 2, 2)).astype(float)
    return TabulationCube(h, 2, ages, groups, vals)


def test_inject_noise_requires_all_levels(small_cube):
    cfg = DasConfig("custom", PrivacyBudget(4.0), seed=1)
    with pytest.raises(ProtectionError, match="missing cube"):
        inject_noise({2: small_cube}, cfg)


def test_inject_noise_epsilon_accounting(small_cube):
    cubes = leveled_cubes(small_cube)
    cfg = DasConfig("custom", PrivacyBudget(4.0), seed=1)
    m = inject_noise(cubes, cfg)
    # depth-3 hierarchy: every level (root included) gets eps_total / 3
    assert m.epsilons[(0, "detail")] == pytest.approx(4 / 3)
    assert m.epsilons[(2, "detail")] == pytest.approx(4 / 3)
    cfg2 = DasConfig("custom", PrivacyBudget(4.0, pass_shares=(0.5, 0.5)), seed=1)
    m2 = inject_noise(cubes, cfg2)
    assert m2.epsilons[(1, "totals")] == pytest.approx(4 / 6)
    assert m2.epsilons[(1, "detail")] == pytest.approx(4 / 6)
    assert (0, "totals") not in m2.epsilons  # the root total is an exact invariant


def test_inject_noise_levels_independent():
    # noise at parent and child levels comes from separate keyed streams:
    # empirical correlation over ~1e5 paired draws stays below 0.01
    h, _ = build_synthetic_geography(48, [6, 8], "grid", seed=3)
    ages, groups = AgeSchema(("a", "b")), GroupSchema(("x", "y"))
    vals = rng(4).integers(0, 60, (48, 2, 2)).astype(float)
    cubes = leveled_cubes(TabulationCube(h, 2, ages, groups, vals))
    n_pairs = cubes[1].values.size  # 24 parent cells per seed
    a, b = [], []
    for seed in range(4200):
        cfg = DasConfig("custom", PrivacyBudget(2.0), seed=seed)
        m = inject_noise(cubes, cfg)
        a.extend(m.detail_noise[1].ravel())
        b.extend(m.detail_noise[2].ravel()[:n_pairs])
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_inject_noise_deterministic(small_cube):
    cubes = leveled_cubes(small_cube)
    cfg = DasConfig("custom", PrivacyBudget(4.0), seed=9)
    m1 = inject_noise(cubes, cfg)
    m2 = inject_noise(cubes, cfg)
    # the noisy values are each cube plus this noise
    for rank in m1.detail_noise:
        assert np.array_equal(m1.detail_noise[rank], m2.detail_noise[rank])


# ---------------------------------------------------------------------------
# run_topdown


def check_published_consistency(protected, audit, true_cube):
    h = true_cube.hierarchy
    for rank in range(h.depth - 1):
        agg = aggregate(protected, rank)
        pub = audit.published[rank]
        assert np.array_equal(agg.values, pub.values), f"rank {rank} inconsistent"
    assert protected.total == true_cube.total
    assert np.array_equal(protected.values, np.round(protected.values))
    assert np.all(protected.values >= 0)


@pytest.mark.parametrize("variant", ["v19", "v20", "v22"])
def test_topdown_consistency_all_variants(small_cube, variant):
    for seed in (0, 1, 2):
        protected, audit = run_topdown(small_cube, das_preset(variant, seed=seed))
        check_published_consistency(protected, audit, small_cube)


def test_topdown_multipass_detail_sums_match_published_totals(small_cube):
    protected, audit = run_topdown(small_cube, das_preset("v20", seed=4))
    # each unit's published histogram must agree with its first-pass total
    for rank in range(small_cube.hierarchy.depth):
        pub = audit.published[rank]
        totals = audit.published_totals[rank]
        assert np.array_equal(unit_totals(pub), totals)


def test_topdown_infinite_epsilon_identity(small_cube):
    cfg = DasConfig("custom", PrivacyBudget(math.inf), seed=3)
    protected, _ = run_topdown(small_cube, cfg)
    assert np.array_equal(protected.values, small_cube.values)


def test_topdown_deterministic(small_cube):
    p1, _ = run_topdown(small_cube, das_preset("v19", seed=11))
    p2, _ = run_topdown(small_cube, das_preset("v19", seed=11))
    assert np.array_equal(p1.values, p2.values)
    p3, _ = run_topdown(small_cube, das_preset("v19", seed=12))
    assert not np.array_equal(p1.values, p3.values)


def test_topdown_rejects_non_leaf_and_real_cubes(small_cube):
    parent = aggregate(small_cube, 1)
    with pytest.raises(ProtectionError):
        run_topdown(parent, das_preset("v19"))


@pytest.fixture(scope="module")
def study_like_cube():
    from privmap.simulate import synth_population
    from privmap.tabulation import default_age_schema, default_group_schema

    h, _ = build_synthetic_geography(120, [2, 3, 4, 5], "grid", seed=6)
    return synth_population(
        h,
        default_age_schema(),
        default_group_schema(),
        minority_ratio=12.0,
        pop_scale=174.0,
        minority_sigma=0.7,
        seed=6,
    )


def test_topdown_v22_more_accurate_than_v19(study_like_cube):
    errs = {"v19": [], "v22": []}
    for variant in errs:
        for seed in range(6):
            protected, _ = run_topdown(study_like_cube, das_preset(variant, seed=seed))
            errs[variant].append(np.abs(protected.values - study_like_cube.values).mean())
    assert np.mean(errs["v22"]) < np.mean(errs["v19"])


def test_topdown_accuracy_monotone_in_epsilon(study_like_cube):
    means = []
    for eps in (1.0, 4.0, 20.82):
        errs = []
        for seed in range(20):
            cfg = DasConfig("custom", PrivacyBudget(eps), seed=seed)
            protected, _ = run_topdown(study_like_cube, cfg)
            errs.append(np.abs(protected.values - study_like_cube.values).mean())
        means.append(np.mean(errs))
    assert means[0] > means[1] > means[2]


def test_topdown_small_minority_cells_underestimated_v19():
    # sparse segregated world: small nonzero minority cells sit among many
    # zero siblings and the nonnegativity repair shaves them more often
    # than not (directional, not a fixed number)
    from privmap.simulate import synth_population
    from privmap.tabulation import default_age_schema, default_group_schema

    h, _ = build_synthetic_geography(300, [2, 2, 3, 5, 5], "grid", seed=11)
    pop = synth_population(
        h,
        default_age_schema(),
        default_group_schema(),
        minority_ratio=12.0,
        pop_scale=174.0,
        minority_sigma=2.6,
        seed=11,
    )
    fracs = []
    for seed in (40, 41, 42):
        protected, _ = run_topdown(pop, das_preset("v19", seed=seed))
        t = pop.values[:, :, 1]
        e = protected.values[:, :, 1]
        small = (t >= 1) & (t <= 5)
        fracs.append(np.mean(e[small] < t[small]))
    assert np.mean(fracs) > 0.5


def test_audit_file_schema(small_cube, tmp_path):
    protected, audit = run_topdown(small_cube, das_preset("v20", seed=4))
    path = tmp_path / "audit.csv"
    write_audit(audit, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "unit_id,age_band,group,epsilon,noise"
    assert any(",__all__,__all__," in line for line in lines[1:])  # totals rows
    # one detail row per cell per level
    n_detail = sum(audit.published[r].values.size for r in audit.detail_noise)
    n_totals = sum(len(audit.published[r].unit_ids) for r in audit.totals_noise)
    assert len(lines) - 1 == n_detail + n_totals


def test_audit_file_single_pass_has_no_totals_rows(small_cube, tmp_path):
    _, audit = run_topdown(small_cube, das_preset("v19", seed=4))
    path = tmp_path / "audit19.csv"
    write_audit(audit, path)
    lines = path.read_text().splitlines()
    assert not any("__all__" in line for line in lines)
    n_detail = sum(audit.published[r].values.size for r in audit.detail_noise)
    assert len(lines) - 1 == n_detail


# ---------------------------------------------------------------------------
# ragged, deep hierarchies listed in shuffled order


def ragged_hierarchy(r, depth, max_fan):
    """A random tree with 1..max_fan children per internal unit whose records
    are listed in shuffled order, so siblings are not contiguous."""
    records, frontier = [("r", "L0", "")], ["r"]
    for rank in range(1, depth):
        kids = [(f"{p}.{c}", f"L{rank}", p) for p in frontier for c in range(int(r.integers(1, max_fan + 1)))]
        records += kids
        frontier = [uid for uid, _, _ in kids]
    return Hierarchy.from_records([records[i] for i in r.permutation(len(records))])


def ragged_cube(seed, depth, max_fan):
    r = rng(seed)
    h = ragged_hierarchy(r, depth, max_fan)
    # mostly small counts with many zeros, so projections clamp and rows repair
    vals = (r.integers(0, 12, (len(h.leaf_ids), 2, 2)) * r.integers(0, 2, (len(h.leaf_ids), 2, 2))).astype(float)
    return TabulationCube(h, depth - 1, AgeSchema(("a", "b")), GroupSchema(("x", "y")), vals)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 6),
    st.sampled_from(sorted(PRESETS)),
    st.sampled_from(NOISE_FAMILIES),
)
def test_topdown_invariants_on_ragged_shuffled_trees(seed, depth, variant, family):
    cube = ragged_cube(seed, depth, 4 if depth <= 4 else 3)
    protected, audit = run_topdown(cube, das_preset(variant, seed=seed % 1000, noise_family=family))
    check_published_consistency(protected, audit, cube)
    for rank, totals in (audit.published_totals or {}).items():
        assert np.array_equal(unit_totals(audit.published[rank]), totals)


# sha256 of the published leaf cube, then each rank's published totals, as
# int64 bytes; identical to the per-parent reconciliation these replaced
PINNED_DIGESTS = {
    "v19": "74bc79eeb8574b2d330a41fe6cedb51eb5861a03db6c15c3116b813b906f6bb4",
    "v20": "8dc87115acbf0afb402decc165594fee1299d0721c30b86d9820d37467e233e7",
    "v22": "8ecf53c6ef8b88ce3dce5f18aa664c145036328dbc682f9f4d4a6434d133acfe",
}


@pytest.mark.parametrize("variant", sorted(PINNED_DIGESTS))
def test_topdown_output_pinned_on_shuffled_ragged_tree(variant):
    cube = ragged_cube(2024, 5, 5)
    protected, audit = run_topdown(cube, das_preset(variant, seed=3))
    digest = hashlib.sha256(protected.values.astype(np.int64).tobytes())
    for rank in sorted(audit.published_totals or {}):
        digest.update(audit.published_totals[rank].astype(np.int64).tobytes())
    assert digest.hexdigest() == PINNED_DIGESTS[variant]
