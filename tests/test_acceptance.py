"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line with the measured values.

Criteria 6-8 share a single committed study run (300 leaves, 50 replicates,
reduced MCMC, fixed seeds). Criterion 10 replays a compact end-to-end
pipeline twice and compares report bytes.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest
from click.testing import CliRunner

import privmap as pm
from privmap import geo, pipeline, tables
from privmap.carmodel import McmcConfig, build_spec, fit
from privmap.cli import main as cli_main
from privmap.das import (
    NoiseModel,
    controlled_round,
    das_preset,
    dlaplace_variance,
    project_children,
    run_topdown,
)
from privmap.simulate import (
    DgpConfig,
    bias as metric_bias,
    mape as metric_mape,
    run_study,
    synth_deaths,
    synth_population,
    synth_poverty,
)
from privmap.standardize import ExpectedCounts, expected_counts, rates_from_cubes
from privmap.tabulation import aggregate, default_age_schema, default_group_schema

STUDY_SEED = 7  # committed master seed for the acceptance study


def criterion(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:>2}] {status} - {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. DAS mechanism correctness


def test_criterion_1_noise_variance():
    details = []
    ok = True
    for i, eps in enumerate((0.5, 1.0, 4.0)):
        draws = NoiseModel("discrete-laplace").sample(eps, 1_000_000, np.random.default_rng(100 + i))
        target = dlaplace_variance(eps)
        rel = abs(draws.var() - target) / target
        ok &= rel <= 0.05
        details.append(f"eps={eps}: var {draws.var():.4f} vs {target:.4f} ({100*rel:.2f}%)")
    criterion(1, "discrete-laplace variance within 5%", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 2. post-processing exactness


def _tau_grid_oracle(parent, z, step=1e-4):
    lo = -(np.abs(z).max() + parent + 1)
    hi = parent + np.abs(z).max() + 1
    taus = np.arange(lo, hi, step)
    sums = np.maximum(z[None, :] + taus[:, None], 0).sum(axis=1)
    best = int(np.argmin(np.abs(sums - parent)))
    return np.maximum(z + taus[best], 0)


def _enum_oracle(parent, z):
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


def _kkt_residual(parent, z, x):
    free = x > 1e-12
    if not free.any():
        return abs(x.sum() - parent)
    lam = 2 * (x[free] - z[free])
    res = float(np.ptp(lam)) if free.sum() > 1 else 0.0
    nu = -lam.mean()
    if (~free).any():
        mu = -2 * z[~free] + nu
        res = max(res, max(0.0, float(-mu.min())))
    return max(res, abs(float(x.sum()) - parent))


def test_criterion_2_postprocessing_exactness():
    rng = np.random.default_rng(2024)
    max_kkt = 0.0
    max_grid_gap = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        parent = float(np.round(rng.uniform(0, 15), 2))
        z = rng.normal(parent / n, 4.0, n)
        x = project_children(parent, z)
        max_kkt = max(max_kkt, _kkt_residual(parent, z, x))
        oracle = _enum_oracle(parent, z)
        assert x == pytest.approx(oracle, abs=1e-9)
        grid = _tau_grid_oracle(parent, z)
        max_grid_gap = max(max_grid_gap, float(np.abs(x - grid).max()))

    round_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        vals = rng.uniform(0, 20, n)
        target = int(round(vals.sum()))
        out = controlled_round(vals, target)
        round_ok &= int(out.sum()) == target
        round_ok &= bool(np.all((out == np.floor(vals)) | (out == np.ceil(vals))))

    ok = max_kkt <= 1e-9 and max_grid_gap <= 1e-3 and round_ok
    criterion(
        2,
        "projection matches oracles; rounding exact",
        ok,
        f"max KKT residual {max_kkt:.2e}, max grid gap {max_grid_gap:.2e}, rounding ok {round_ok}",
    )


# ---------------------------------------------------------------------------
# 3. hierarchical consistency


def test_criterion_3_hierarchical_consistency():
    h, _ = pm.build_synthetic_geography(300, [15, 20], "grid", seed=30)
    ages, groups = default_age_schema(), default_group_schema()
    cube = synth_population(
        h, ages, groups, minority_ratio=12.0, pop_scale=174.0, minority_sigma=0.7, seed=30
    )
    checked = 0
    for variant in ("v19", "v20", "v22"):
        for seed in range(20):
            protected, audit = run_topdown(cube, das_preset(variant, seed=seed))
            assert np.array_equal(protected.values, np.round(protected.values)) and np.all(protected.values >= 0)
            for rank in (0, 1):
                agg = aggregate(protected, rank)
                assert np.array_equal(agg.values, audit.published[rank].values), (
                    f"{variant} seed {seed} rank {rank}"
                )
            assert protected.total == cube.total
            checked += 1
    criterion(
        3,
        "parents equal child sums, root total exact",
        checked == 60,
        f"{checked} runs (3 variants x 20 seeds) on a 3-level 300-leaf cube",
    )


# ---------------------------------------------------------------------------
# 4. CAR sampler covariance


def test_criterion_4_car_sampler():
    _, adj = pm.build_synthetic_geography(9, [3, 3], "grid", seed=4)
    rho = 0.2
    q = np.diag(adj.row_sums) - rho * adj.weights.toarray()
    target = np.linalg.inv(q)
    draws = pm.sample_car_prior(adj, rho, 1.0, np.random.default_rng(44), size=100_000)
    cov = np.cov(draws.T)
    scale_ref = np.sqrt(np.outer(np.diag(target), np.diag(target)))
    worst = float(np.abs((cov - target) / scale_ref).max())
    criterion(4, "CAR joint draws match dense inverse", worst < 0.03, f"max rel dev {100*worst:.2f}%")


# ---------------------------------------------------------------------------
# 5. GLM-reduction sanity


def _irls(x, y, offset, iters=60):
    beta = np.zeros(x.shape[1])
    for _ in range(iters):
        mu = np.exp(x @ beta + offset)
        z = x @ beta + (y - mu) / mu
        xtw = x.T * mu
        new = np.linalg.solve(xtw @ x, xtw @ z)
        if np.max(np.abs(new - beta)) < 1e-12:
            return new
        beta = new
    return beta


def test_criterion_5_glm_reduction():
    rng = np.random.default_rng(55)
    n = 250  # two groups -> 500 strata
    p_vals = rng.uniform(5, 50, (n, 2))
    ec = ExpectedCounts([f"u{i}" for i in range(n)], ("a", "b"), p_vals, "truth")
    cov = rng.uniform(0, 1, n)
    spec = build_spec(ec, cov, None, include_overdispersion=False)
    beta_true = np.array([0.0, 0.4, 0.01])
    y = rng.poisson(np.exp(spec.x @ beta_true + spec.offset))
    draws = fit(y, spec, McmcConfig(4000, 2000, 2, seed=5))
    post_mean = draws.beta.mean(axis=0)
    post_sd = draws.beta.std(axis=0, ddof=1)
    mle = _irls(spec.x, y, spec.offset)
    ok = bool(np.all(np.abs(post_mean - mle) <= 3 * post_sd))
    criterion(
        5,
        "posterior matches IRLS oracle within 3 sd",
        ok,
        f"posterior {np.round(post_mean, 4)} vs MLE {np.round(mle, 4)} (sd {np.round(post_sd, 4)})",
    )


# ---------------------------------------------------------------------------
# 6-8. the committed simulation study


@pytest.fixture(scope="module")
def study():
    seed = STUDY_SEED
    h, adj = pm.build_synthetic_geography(300, [2, 2, 3, 5, 5], "grid", seed)
    ages, groups = default_age_schema(), default_group_schema()
    pop = synth_population(
        h, ages, groups, minority_ratio=12.0, pop_scale=174.0, minority_sigma=0.7, seed=seed
    )
    deaths = synth_deaths(pop, seed=seed)
    rates = rates_from_cubes(deaths, pop, True)
    truth = expected_counts(pop, rates, "truth")
    pov = synth_poverty(300, seed=seed)
    sources = [truth]
    for variant in ("v19", "v20", "v22"):
        protected, _ = run_topdown(pop, das_preset(variant, seed=seed + 1))
        sources.append(expected_counts(protected, rates, variant))
    dgp = DgpConfig(n_reps=50, master_seed=seed)
    return run_study(dgp, sources, pov, adj, McmcConfig(2400, 1200, 4, seed=0), jobs=1)


def _converged_shares(study):
    """Share of each source's fits whose Geweke check passed."""
    return ", ".join(f"{src} {np.mean(flags):.2f}" for src, flags in study.convergence.items())


def test_criterion_6_truth_denominators_unbiased(study):
    b1 = study.coef_bias_mean["truth"][1]
    b2 = study.coef_bias_mean["truth"][2]
    ok = abs(b1) <= 0.02 and abs(b2) <= 0.005
    criterion(
        6,
        "truth-source coefficient bias",
        ok,
        f"mean bias(b1) {b1:+.4f} (<=0.02), mean bias(b2) {b2:+.4f} (<=0.005), 50 reps; "
        f"converged share {_converged_shares(study)}",
    )


def test_criterion_7_das_ordering(study):
    b1_v19 = study.coef_bias_mean["v19"][1]
    b1_v22 = study.coef_bias_mean["v22"][1]
    ok = (b1_v19 > 0) and (b1_v19 > b1_v22) and (-0.02 <= b1_v22 <= 0.03)
    criterion(
        7,
        "group-contrast bias sign and ordering",
        ok,
        f"v19 {b1_v19:+.4f} (>0), v22 {b1_v22:+.4f} (in [-0.02, 0.03]), v19 > v22: {b1_v19 > b1_v22}; "
        f"converged share {_converged_shares(study)}",
    )


def test_criterion_8_smr_disparity_pattern(study):
    g_b19 = study.group_bias["v19"]["Black"]
    g_n19 = study.group_bias["v19"]["NHW"]
    up_b19 = study.upward_pct["v19"]["Black"]
    up_n19 = study.upward_pct["v19"]["NHW"]
    g_b22 = study.group_bias["v22"]["Black"]
    bias_gap_ok = (g_b19 - g_n19) >= 0.05
    up_gap_ok = (up_b19 - up_n19) >= 10.0
    v22_ok = g_b22 <= 0.04
    detail = (
        f"v19 bias gap {g_b19 - g_n19:+.4f} (>=0.05: {bias_gap_ok}); "
        f"v19 upward gap {up_b19 - up_n19:+.1f}pp (>=10: {up_gap_ok}); "
        f"v22 minority bias {g_b22:+.4f} (<=0.04: {v22_ok})"
    )
    criterion(8, "SMR disparity pattern", bias_gap_ok and up_gap_ok and v22_ok, detail)


# ---------------------------------------------------------------------------
# study-level invariants (not numbered criteria; share the committed run)


def test_invariant_truth_source_smr_bias_small(study):
    vals = {g: abs(study.group_bias["truth"][g]) for g in study.groups}
    print(f"\n[invariant] truth-source group |SMR bias|: {vals}")
    assert all(v <= 0.03 for v in vals.values())


def test_invariant_minority_mape_gap_truth_source(study):
    mape_b = study.group_mape["truth"]["Black"]
    mape_n = study.group_mape["truth"]["NHW"]
    print(f"\n[invariant] truth-source MAPE minority {mape_b:.3f} vs majority {mape_n:.3f}")
    assert mape_b > mape_n


def test_invariant_source_ordering_attainable(study):
    # low-budget variants sit above the high-budget variant, which sits at or
    # near the truth floor, for minority SMR bias; the v19/v20 pair is not
    # ordered by this mechanism (equal total budget, v20 spends half its
    # detail budget on the totals anchor)
    g = {src: study.group_bias[src]["Black"] for src in study.sources}
    print(f"\n[invariant] minority SMR bias by source: { {k: round(v, 4) for k, v in g.items()} }")
    assert g["v19"] > g["v22"] > 0
    assert g["v20"] > g["v22"]
    assert g["v22"] >= g["truth"] - 0.01


# ---------------------------------------------------------------------------
# 9. metric definitions


def test_criterion_9_metric_definitions():
    rng = np.random.default_rng(9)
    est = rng.uniform(0.5, 2.5, (100, 60))
    tru = rng.uniform(0.5, 2.5, (100, 60))
    m = metric_mape(est, tru)
    b = metric_bias(est, tru)
    m_direct = np.array(
        [np.mean(np.abs((est[:, j] - tru[:, j]) / tru[:, j])) for j in range(60)]
    )
    b_direct = np.array([np.mean(est[:, j] - tru[:, j]) for j in range(60)])
    worst = max(float(np.abs(m - m_direct).max()), float(np.abs(b - b_direct).max()))
    criterion(9, "mape/bias match direct recomputation", worst <= 1e-12, f"max dev {worst:.2e}")


# ---------------------------------------------------------------------------
# 10. pipeline determinism


PIPE_CONFIG = {
    "seed": 13,
    "geo": {"leaves": 48, "branching": [3, 4, 4], "layout": "grid"},
    "model": {"mcmc": {"iterations": 800, "burnin": 400, "thin": 4}},
    "sim": {"n_reps": 2, "sources": ["truth", "v19", "v20", "v22"]},
}

PIPE_CMDS = (
    [["geo"]]
    + [["protect", "--variant", v] for v in ("v19", "v20", "v22")]
    + [["expect", "--source", s] for s in ("truth", "v19", "v20", "v22")]
    + [["fit", "--source", "truth"], ["simulate"], ["report"]]
)

REPORT_FILES = (
    "simulate/coef_bias.csv",
    "simulate/smr_bias.csv",
    "simulate/smr_mape.csv",
    "simulate/fractions.csv",
    "simulate/replicates.csv",
    "report/denominators.csv",
    "report/report.txt",
)


def test_criterion_10_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(PIPE_CONFIG))
    runner = CliRunner()
    hashes = {}
    for run in ("a", "b"):
        out = tmp_path / run
        base = ["--config", str(cfg_path), "--out", str(out)]
        for cmd in PIPE_CMDS:
            result = runner.invoke(cli_main, base + cmd, catch_exceptions=False)
            assert result.exit_code == 0, result.output
        hashes[run] = {
            rel: hashlib.sha256((out / rel).read_bytes()).hexdigest() for rel in REPORT_FILES
        }
    ok = hashes["a"] == hashes["b"]
    criterion(10, "byte-identical reports across reruns", ok, f"{len(REPORT_FILES)} files compared")


# sha256 of each REPORT_FILES file after PIPE_CMDS; criterion 10 compares two
# runs of one version, so only these pins catch a change to the tables' bytes
REPORT_DIGESTS = {
    "simulate/coef_bias.csv": "de006d1b3995dc5a10fdcf652b9a1f60b7c375ab557c2ed5eee7d13a67ba0b44",
    "simulate/smr_bias.csv": "7e4beba184d52e3bf07ce13fd73d11f7b7d0dfddc7cb1d4128ea6ede79f90483",
    "simulate/smr_mape.csv": "e30a426a21851b7e04fc5a345d19a9cec9d2074f2ebc73bd46e5e2b93867b49b",
    "simulate/fractions.csv": "5cbcb9a54de3365c0261f04010d1fb688a80ff88675964a18ad65783963e4ce0",
    "simulate/replicates.csv": "18aec6dcefc3bb2e6eeba6c5d27c59d66444355da4fe37db8a42c8a8dd3f7a2a",
    "report/denominators.csv": "fb0d6667204a026773d82e311566f827c79e6623a507f2c08409985908c4051f",
    "report/report.txt": "14b424ca5ae3d467cc51bf370e4f22dbda7c52c230dcaee000b550f5de76f941",
}


def test_study_tables_match_their_pinned_digests(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(PIPE_CONFIG))
    out = tmp_path / "out"
    for cmd in PIPE_CMDS:
        result = CliRunner().invoke(cli_main, ["--config", str(cfg_path), "--out", str(out)] + cmd)
        assert result.exit_code == 0, result.output
    assert {rel: hashlib.sha256((out / rel).read_bytes()).hexdigest() for rel in REPORT_FILES} == REPORT_DIGESTS


def test_manifest_digests_are_the_bytes_each_stage_read_or_wrote(tmp_path, monkeypatch):
    # every digest is the sha256 of the file as the stage read or wrote it;
    # a cube edited after protect, to other bytes of the same counts, is
    # recorded by expect as edited while protect's entry keeps what it wrote.
    # The manifest hashes nothing itself: privmap.tables hashed every file.
    hashed = []
    monkeypatch.setattr(
        pipeline, "sha256_file", lambda p, _hash=pipeline.sha256_file: hashed.append(p.name) or _hash(p)
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(PIPE_CONFIG))
    out = tmp_path / "out"
    cube = out / "protect" / "protected_v19.csv"
    written = None
    for cmd in PIPE_CMDS:
        if cmd[0] == "expect" and written is None:
            written = hashlib.sha256(cube.read_bytes()).hexdigest()
            header, first, *rest = cube.read_bytes().split(b"\r\n")
            key, value = first.rsplit(b",", 1)
            cube.write_bytes(b"\r\n".join([header, key + b",0" + value, *rest]))
        result = CliRunner().invoke(cli_main, ["--config", str(cfg_path), "--out", str(out)] + cmd)
        assert result.exit_code == 0, result.output
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert len(stages) == len(PIPE_CMDS)
    for st in stages:
        for rel, digest in {**st["inputs"], **st["outputs"]}.items():
            on_disk = hashlib.sha256((out / rel).read_bytes()).hexdigest()
            edited = (st["stage"], rel) == ("protect:v19", "protect/protected_v19.csv")
            assert digest == (written if edited else on_disk), (st["stage"], rel)
    assert written != hashlib.sha256(cube.read_bytes()).hexdigest()
    expect_v19 = next(st for st in stages if st["stage"] == "expect:v19")
    assert expect_v19["inputs"]["protect/protected_v19.csv"] == hashlib.sha256(cube.read_bytes()).hexdigest()
    assert hashed == []


def test_pipeline_reads_its_own_tables_in_order(tmp_path, monkeypatch):
    # every keyed table the stages write is read back from its sidecar, as
    # is the hierarchy by every stage after geo, and none takes the record
    # readers
    reads = []
    for module, name in ((tables, "read_sidecar"), (tables, "read_cells"), (geo, "sidecar_payload")):
        def spy(path, *args, _read=getattr(module, name), _name=name):
            found = _read(path, *args)
            reads.append((_name, path.relative_to(tmp_path).as_posix(), found is not None))
            return found

        monkeypatch.setattr(module, name, spy)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(PIPE_CONFIG))
    for cmd in PIPE_CMDS:
        result = CliRunner().invoke(cli_main, ["--config", str(cfg_path), "--out", str(tmp_path)] + cmd)
        assert result.exit_code == 0, result.output
    from_sidecar = {path for name, path, found in reads if name == "read_sidecar" and found}
    assert all(found for _, _, found in reads), [read for read in reads if not read[2]]
    assert from_sidecar == {"geo/population.csv", "geo/deaths.csv", "geo/totals.csv", "geo/covariates.csv"} | {
        f"protect/protected_{v}.csv" for v in ("v19", "v20", "v22")
    } | {f"expect/expected_{s}.csv" for s in ("truth", "v19", "v20", "v22")}
    assert not [read for read in reads if read[0] == "read_cells"]
    hierarchy_reads = [read for read in reads if read[0] == "sidecar_payload"]
    assert hierarchy_reads == [("sidecar_payload", "geo/hierarchy.csv", True)] * (len(PIPE_CMDS) - 1)
