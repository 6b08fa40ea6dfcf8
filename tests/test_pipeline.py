import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import privmap.pipeline as pipeline
from privmap.cli import main
from privmap.errors import ConfigError, MissingInputError
from privmap.pipeline import (
    DEFAULT_CONFIG,
    load_config,
    stage_expect,
    stage_fit,
    stage_geo,
    stage_protect,
    stage_report,
    stage_simulate,
)

TINY = {
    "seed": 3,
    "geo": {"leaves": 16, "branching": [2, 2, 4], "layout": "grid"},
    "model": {"mcmc": {"iterations": 500, "burnin": 200, "thin": 3}},
    "sim": {"n_reps": 1, "sources": ["truth", "v19"]},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(TINY))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# config handling


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(None)
    assert cfg == DEFAULT_CONFIG
    path = write_config(tmp_path, {"seed": 9})
    cfg = load_config(path)
    assert cfg["seed"] == 9
    assert cfg["geo"]["leaves"] == 16
    assert cfg["das"]["variant"] == "v19"  # default filled in
    cfg2 = load_config(path, seed_override=42)
    assert cfg2["seed"] == 42


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"geo": {"leaves": 16, "wat": 1}}))
    with pytest.raises(ConfigError, match="wat"):
        load_config(path)
    path.write_text(json.dumps({"frobnicate": True}))
    with pytest.raises(ConfigError, match="frobnicate"):
        load_config(path)


def test_load_config_validates_values(tmp_path):
    for bad in (
        {"geo": {"leaves": 2}},
        {"geo": {"layout": "moebius"}},
        {"das": {"variant": "v99"}},
        {"das": {"variant": "custom"}},  # custom requires epsilon_total
        {"das": {"variant": "v19", "epsilon_total": 0.5}},  # v19 pins 4.0
        {"sim": {"sources": ["v19"]}},   # truth required
        {"sim": {"sources": ["truth", "v19", "v19"]}},  # a source named twice
        {"sim": {"beta": [0.0, 0.4]}},  # the model has an intercept, one group contrast and the covariate
        {"model": {"mcmc": {"iterations": 250, "burnin": 200, "thin": 1}}},  # keeps 50 draws, the summary needs 100
        {"model": {"mcmc": {"thin": 0}}},
        {"model": {"mcmc": {"iterations": 100, "burnin": 200}}},  # burn-in past the run
        {"model": {"mcmc": {"iterations": 100, "burnin": 100}}},
        {"model": {"mcmc": {"burnin": -1}}},
        {"model": {"mcmc": {"iterations": 2400.0}}},
        {"model": {"priors": {"beta_var": "big"}}},
        {"model": {"priors": {"beta_var": -1}}},  # improper prior
        {"model": {"priors": {"ig_shape": -1}}},
        {"model": {"priors": {"ig_scale": 0}}},
        {"model": {"priors": {"beta_var": float("inf")}}},
        {"model": {"priors": {"ig_shape": True}}},
        {"seed": "one"},
        {"seed": -1},
        {"das": {"level_shares": 3}},
        {"das": {"level_shares": [0.3, 0.3]}},  # shares must sum to 1
        {"das": {"level_shares": [0.5, 0.5]}},  # TINY has 4 geolevels
        {"das": {"variant": "v19", "pass_shares": [0.5, 0.5]}},  # v19 is single-pass
        {"das": {"noise_family": "cauchy"}},
        {"das": {"variant": "v20", "pass_shares": [0.6, 0.4]}},  # source v19 is single-pass
        {"std": {"age_bands": [1, 2]}},  # labels are strings
        {"std": {"age_bands": ["a", "a"]}},  # AgeSchema's rules apply at load
        {"std": {"age_bands": []}},
        {"sim": {"rho": "abc"}},  # DgpConfig's rules apply at load
        {"sim": {"phi_var": -1}},
        {"sim": {"pop_scale": "big"}},  # synth_population's and synth_deaths' ranges
        {"sim": {"minority_ratio": 0}},
        {"sim": {"minority_sigma": -0.5}},
        {"sim": {"hazard_scale": -1}},
        {"io": {"out": 5}},  # not a path
        {"std": {"race_specific_rates": "no"}},  # a JSON bool, not any truthy value
    ):
        path = write_config(tmp_path, bad, name="bad.json")
        with pytest.raises(ConfigError):
            load_config(path)
    # McmcConfig's range rules apply at load: no burn-in is allowed, and
    # these settings keep exactly the 100 draws the fit summary needs
    cfg = load_config(write_config(tmp_path, {"model": {"mcmc": {"iterations": 100, "burnin": 0, "thin": 1}}}))
    assert cfg["model"]["mcmc"]["burnin"] == 0


def test_load_config_accepts_inf_epsilon(tmp_path):
    path = write_config(tmp_path, {"das": {"variant": "custom", "epsilon_total": "inf"}})
    cfg = load_config(path)
    assert cfg["das"]["epsilon_total"] == "inf"


def test_preset_epsilon_must_match_the_pinned_value(tmp_path):
    # a preset pins its budget, so a different finite epsilon_total would be
    # recorded in the manifest but never used
    for variant, pinned in (("v19", 4.0), ("v20", 4.0), ("v22", 20.82)):
        for eps in (pinned, "inf"):
            load_config(write_config(tmp_path, {"das": {"variant": variant, "epsilon_total": eps}}))
    path = write_config(tmp_path, {"das": {"variant": "v22", "epsilon_total": 4.0}})
    with pytest.raises(ConfigError, match=r"4\.0 differs from the 20\.82 that variant v22 pins"):
        load_config(path)


def test_protect_manifest_records_the_budget_it_ran(tmp_path):
    # das.epsilon_total belongs to das.variant; a preset run from the same
    # config keeps its pinned budget, and the manifest says which one ran
    cfg_path = write_config(tmp_path, {"das": {"variant": "custom", "epsilon_total": 0.5}})
    out = tmp_path / "run"
    base = ["--config", str(cfg_path), "--out", str(out)]
    for cmd in (["geo"], ["protect", "--variant", "v19"], ["protect", "--variant", "custom"],
                ["protect", "--variant", "v20"]):
        result = run_cli(base + cmd)
        assert result.exit_code == 0, result.output
    stages = {s["stage"]: s["extra"] for s in json.loads((out / "manifest.json").read_text())["stages"] if "extra" in s}
    assert stages["protect:v19"] == {"variant": "v19", "epsilon_total": 4.0, "pass_shares": None}
    assert stages["protect:custom"] == {"variant": "custom", "epsilon_total": 0.5, "pass_shares": None}
    assert stages["protect:v20"] == {"variant": "v20", "epsilon_total": 4.0, "pass_shares": [0.5, 0.5]}


def test_import_loads_no_scipy():
    # only geo and the fit need scipy, and both import it on use; a fresh
    # `import privmap` stays about half as long without it
    code = "import sys, privmap, privmap.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_missing_config_file():
    with pytest.raises(MissingInputError):
        load_config("/nonexistent/config.json")


# ---------------------------------------------------------------------------
# stages


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = load_config(None)
    cfg = json.loads(json.dumps(cfg))
    cfg.update(json.loads(json.dumps(TINY)))
    cfg = load_config_from_dict(cfg)
    stage_geo(cfg, out)
    stage_protect(cfg, out, "v19")
    stage_expect(cfg, out, "truth")
    stage_expect(cfg, out, "v19")
    return cfg, out


def load_config_from_dict(d):
    import json as _json
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        _json.dump(d, fh)
        name = fh.name
    try:
        return load_config(name)
    finally:
        os.unlink(name)


def test_stage_geo_outputs(pipeline_run):
    _, out = pipeline_run
    outputs = (
        "geo/hierarchy.csv",
        "geo/adjacency.csv",
        "geo/population.csv",
        "geo/deaths.csv",
        "geo/totals.csv",
        "geo/covariates.csv",
        "geo/hierarchy.csv.sidecar",
        "geo/population.csv.sidecar",
        "geo/deaths.csv.sidecar",
        "geo/totals.csv.sidecar",
        "geo/covariates.csv.sidecar",
    )
    for rel in outputs + ("manifest.json",):
        assert (out / rel).exists()
    assert not list(out.rglob("*.tmp*"))  # each sidecar is committed under its table's final name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages"][0]["stage"] == "geo"
    assert set(manifest["stages"][0]["outputs"]) == set(outputs)
    assert manifest["config"]["seed"] == 3
    assert all(len(h) == 64 for h in manifest["stages"][0]["outputs"].values())


def test_stage_protect_consistency(pipeline_run):
    cfg, out = pipeline_run
    assert (out / "protect" / "protected_v19.csv").exists()
    audit = (out / "protect" / "audit_v19.csv").read_text().splitlines()
    assert audit[0] == "unit_id,age_band,group,epsilon,noise"


def test_stage_expect_reads_the_hierarchy_the_totals_and_one_cube(pipeline_run):
    _, out = pipeline_run
    stages = {st["stage"]: st for st in json.loads((out / "manifest.json").read_text())["stages"]}
    for source, cube in (("v19", "protect/protected_v19.csv"), ("truth", "geo/population.csv")):
        assert set(stages[f"expect:{source}"]["inputs"]) == {
            "geo/hierarchy.csv", "geo/hierarchy.csv.sidecar", "geo/totals.csv", "geo/totals.csv.sidecar", cube,
            cube + ".sidecar",
        }
        assert set(stages[f"expect:{source}"]["outputs"]) == {
            f"expect/expected_{source}.csv", f"expect/expected_{source}.csv.sidecar"
        }


def test_stage_expect_files(pipeline_run):
    _, out = pipeline_run
    header = (out / "expect" / "expected_truth.csv").read_text().splitlines()[0]
    assert header == "unit_id,group,expected"


def test_stage_fit_and_report(pipeline_run):
    cfg, out = pipeline_run
    stage_fit(cfg, out, "truth")
    summary = json.loads((out / "fit" / "summary_truth.json").read_text())
    assert "mrr_lines" in summary and "group:Black" in summary["mrr_lines"]
    rates = summary["accept_rates"]
    assert set(rates) == {"beta", "theta", "phi", "rho"} and all(0 < r < 1 for r in rates.values())
    import re

    assert re.fullmatch(
        r"\d+\.\d{2} \(\d+\.\d{2},\d+\.\d{2}\)", summary["mrr_lines"]["group:Black"]
    )
    stage_simulate(cfg, out, jobs=1)
    for rel in (
        "simulate/coef_bias.csv",
        "simulate/smr_bias.csv",
        "simulate/smr_mape.csv",
        "simulate/fractions.csv",
        "simulate/replicates.csv",
    ):
        assert (out / rel).exists()
    # one replicate: one row per (source, coefficient)
    rows = (out / "simulate" / "replicates.csv").read_text().splitlines()
    assert len(rows) - 1 == 2 * 1 * 3
    stage_report(cfg, out)
    report = (out / "report" / "report.txt").read_text()
    assert "Denominator accuracy" in report
    assert "Simulation study" in report


def test_stage_isolation_fit_ignores_unrelated_outputs(tmp_path):
    # deleting the protect outputs must not affect a truth-source fit
    import shutil

    cfg = load_config_from_dict(json.loads(json.dumps(TINY)))
    out = tmp_path / "run"
    stage_geo(cfg, out)
    stage_protect(cfg, out, "v19")
    stage_expect(cfg, out, "truth")
    stage_fit(cfg, out, "truth")
    with_protect = sha(out / "fit" / "draws_truth.csv")
    shutil.rmtree(out / "protect")
    (out / "fit" / "draws_truth.csv").unlink()
    stage_fit(cfg, out, "truth")
    assert sha(out / "fit" / "draws_truth.csv") == with_protect


def test_stage_fit_with_protected_source(tmp_path):
    cfg = load_config_from_dict(json.loads(json.dumps(TINY)))
    out = tmp_path / "run"
    stage_geo(cfg, out)
    stage_protect(cfg, out, "v19")
    stage_expect(cfg, out, "v19")
    stage_fit(cfg, out, "v19")
    summary = json.loads((out / "fit" / "summary_v19.json").read_text())
    assert summary["source"] == "v19"
    assert (out / "fit" / "draws_v19.csv").exists()


def test_simulate_truth_only_single_replicate(tmp_path):
    cfg = load_config_from_dict(
        json.loads(json.dumps({**TINY, "sim": {"n_reps": 1, "sources": ["truth"]}}))
    )
    out = tmp_path / "run"
    stage_geo(cfg, out)
    stage_expect(cfg, out, "truth")
    stage_simulate(cfg, out, jobs=1)
    rows = (out / "simulate" / "replicates.csv").read_text().splitlines()
    assert len(rows) - 1 == 3  # one replicate x one source x three coefficients
    frac_rows = (out / "simulate" / "fractions.csv").read_text().splitlines()
    assert len(frac_rows) - 1 == 2  # one source x two groups


def test_stage_missing_inputs_raise(tmp_path):
    cfg = load_config(None)
    with pytest.raises(MissingInputError):
        stage_protect(cfg, tmp_path, "v19")
    with pytest.raises(MissingInputError):
        stage_simulate(cfg, tmp_path)


def test_protect_infinite_epsilon_byte_identical(tmp_path):
    path = write_config(
        tmp_path, {"das": {"variant": "custom", "epsilon_total": "inf"}}
    )
    cfg = load_config(path)
    out = tmp_path / "run"
    stage_geo(cfg, out)
    stage_protect(cfg, out, "custom")
    assert (out / "protect" / "protected_custom.csv").read_bytes() == (
        out / "geo" / "population.csv"
    ).read_bytes()


# ---------------------------------------------------------------------------
# CLI surface


def run_cli(args, env=None):
    runner = CliRunner()
    return runner.invoke(main, args, env=env, catch_exceptions=False)


def test_cli_full_pipeline_deterministic(tmp_path):
    cfg_path = write_config(tmp_path)
    hashes = {}
    for run in ("one", "two"):
        out = tmp_path / run
        base = ["--config", str(cfg_path), "--out", str(out)]
        for cmd in (
            ["geo"],
            ["protect", "--variant", "v19"],
            ["expect", "--source", "truth"],
            ["expect", "--source", "v19"],
            ["simulate"],
            ["report"],
        ):
            result = run_cli(base + cmd)
            assert result.exit_code == 0, result.output
        hashes[run] = {
            rel: sha(out / rel)
            for rel in (
                "simulate/coef_bias.csv",
                "simulate/smr_bias.csv",
                "simulate/smr_mape.csv",
                "simulate/fractions.csv",
                "simulate/replicates.csv",
                "report/denominators.csv",
                "report/report.txt",
            )
        }
    assert hashes["one"] == hashes["two"]


def test_cli_exit_codes(tmp_path):
    # config violation -> 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"das": {"variant": "v99"}}))
    result = run_cli(["--config", str(bad), "--out", str(tmp_path / "x"), "geo"])
    assert result.exit_code == 2
    # an unknown source or a worker count below one -> 2, before any stage runs
    cfg_path = write_config(tmp_path)
    for args in (["expect", "--source", "bogus"], ["fit", "--source", "bogus"], ["--jobs", "0", "simulate"],
                 ["--jobs", "-3", "simulate"]):
        result = run_cli(["--config", str(cfg_path), "--out", str(tmp_path / "u")] + args)
        assert result.exit_code == 2, args
    assert not (tmp_path / "u").exists()
    # missing stage input -> 3
    result = run_cli(["--config", str(cfg_path), "--out", str(tmp_path / "y"), "simulate"])
    assert result.exit_code == 3
    # malformed stage input -> 4, naming the file
    out = tmp_path / "z"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "geo"]).exit_code == 0
    (out / "geo" / "population.csv").write_text("")
    result = run_cli(["--config", str(cfg_path), "--out", str(out), "protect"])
    assert result.exit_code == 4
    assert "population.csv" in result.output
    # a hierarchy row whose parent names no unit -> 4, naming file and unit
    out = tmp_path / "w"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "geo"]).exit_code == 0
    hierarchy = out / "geo" / "hierarchy.csv"
    lines = hierarchy.read_text().splitlines()
    leaf = lines[-1].split(",")[0]
    hierarchy.write_text("\n".join(lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",nowhere"]) + "\n")
    result = run_cli(["--config", str(cfg_path), "--out", str(out), "protect"])
    assert result.exit_code == 4
    assert "hierarchy.csv" in result.output and leaf in result.output
    # a level name used at two ranks -> 4, naming file and level
    out = tmp_path / "v"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "geo"]).exit_code == 0
    hierarchy = out / "geo" / "hierarchy.csv"
    lines = hierarchy.read_text().splitlines()
    leaf_level = lines[-1].split(",")[1]
    uid, _, parent = lines[2].split(",")  # one rank below the root
    hierarchy.write_text("\n".join(lines[:2] + [f"{uid},{leaf_level},{parent}"] + lines[3:]) + "\n")
    result = run_cli(["--config", str(cfg_path), "--out", str(out), "protect"])
    assert result.exit_code == 4
    assert "hierarchy.csv" in result.output and f"level {leaf_level!r} used at ranks" in result.output


@pytest.mark.parametrize(
    ("geo", "message"),
    [
        ({"leaves": 1000, "branching": [2, 2]}, "branching [2, 2] supports at most 4 leaves, requested 1000"),
        ({"leaves": 64, "branching": [2] * 6}, "branching must be a list of 1 to 5 positive integers"),
    ],
    ids=["leaves-beyond-branching", "seven-levels"],
)
def test_cli_rejects_a_geography_it_cannot_build(tmp_path, geo, message):
    # a config/schema violation: exit 2 before any stage runs or writes
    cfg_path = write_config(tmp_path, {"geo": geo})
    result = run_cli(["--config", str(cfg_path), "--out", str(tmp_path / "run"), "geo"])
    assert result.exit_code == 2, result.output
    assert f"config error: geo: {message}" in result.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(("count", "message"), [("+1", "does not match"), ("1.5", "non-integral count 1.5")])
def test_cli_expect_fails_on_a_tampered_totals_file(tmp_path, count, message):
    # the statewide totals must describe the population geo wrote: a changed
    # count fails expect with 4, naming the totals and the cube checked
    cfg_path = write_config(tmp_path)
    base = ["--config", str(cfg_path), "--out", str(tmp_path / "run")]
    for cmd in (["geo"], ["protect", "--variant", "v19"]):
        assert run_cli(base + cmd).exit_code == 0
    totals = tmp_path / "run" / "geo" / "totals.csv"
    header, first, *rest = totals.read_bytes().split(b"\r\n")
    key, value = first.rsplit(b",", 1)
    value = str(int(value) + 1) if count == "+1" else count
    totals.write_bytes(b"\r\n".join([header, key + b"," + value.encode(), *rest]))
    for source, cube in (("truth", "population.csv"), ("v19", "protected_v19.csv")):
        result = run_cli(base + ["expect", "--source", source])
        assert result.exit_code == 4, result.output
        assert "totals.csv" in result.output and message in result.output
        if count == "+1":  # a mismatch names the cube checked too
            assert cube in result.output


def test_cli_expect_names_a_protected_cell_edited_after_protect(tmp_path):
    # the edit leaves the cube's sidecar stale, so expect reads the text and
    # fails with 4 naming the edited cell, not the sidecar's value
    cfg_path = write_config(tmp_path)
    base = ["--config", str(cfg_path), "--out", str(tmp_path / "run")]
    for cmd in (["geo"], ["protect", "--variant", "v19"]):
        assert run_cli(base + cmd).exit_code == 0
    cube = tmp_path / "run" / "protect" / "protected_v19.csv"
    header, first, *rest = cube.read_bytes().split(b"\r\n")
    key, _ = first.rsplit(b",", 1)
    cube.write_bytes(b"\r\n".join([header, key + b",-3", *rest]))
    result = run_cli(base + ["expect", "--source", "v19"])
    assert result.exit_code == 4, result.output
    cell = "(" + key.decode().replace(",", ", ") + ")"
    assert f"protected_v19.csv: negative count -3 in cell {cell}" in result.output


def test_cli_expect_without_the_totals_file_is_a_missing_input(tmp_path):
    cfg_path = write_config(tmp_path)
    base = ["--config", str(cfg_path), "--out", str(tmp_path / "run")]
    assert run_cli(base + ["geo"]).exit_code == 0
    (tmp_path / "run" / "geo" / "totals.csv").unlink()
    result = run_cli(base + ["expect", "--source", "truth"])
    assert result.exit_code == 3 and "totals.csv" in result.output


def test_cli_fit_rejects_a_self_loop_in_the_adjacency(tmp_path):
    # the proper CAR prior needs a zero diagonal: a unit listed as its own
    # neighbor fails the stage with 4, naming the file and the unit
    cfg_path = write_config(tmp_path)
    base = ["--config", str(cfg_path), "--out", str(tmp_path / "run")]
    for cmd in (["geo"], ["expect", "--source", "truth"]):
        assert run_cli(base + cmd).exit_code == 0
    adjacency = tmp_path / "run" / "geo" / "adjacency.csv"
    leaf = adjacency.read_text().splitlines()[1].split(",")[0]
    with open(adjacency, "a", newline="") as fh:
        fh.write(f"{leaf},{leaf}\r\n")
    result = run_cli(base + ["fit", "--source", "truth"])
    assert result.exit_code == 4
    assert "adjacency.csv" in result.output and f"unit {leaf}: nonzero diagonal weight" in result.output


def test_manifest_records_stage_cpu_and_peak_memory(tmp_path):
    cfg_path = write_config(tmp_path, {"geo": {"leaves": 24, "branching": [2, 3, 4]}})
    out = tmp_path / "run"
    base = ["--config", str(cfg_path), "--out", str(out)]
    cmds = [["geo"], ["protect", "--variant", "v19"], ["expect", "--source", "truth"], ["expect", "--source", "v19"]]
    for cmd in cmds + [["fit", "--source", "v19"], ["simulate"], ["report"]]:
        assert run_cli(base + cmd).exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    stages = manifest["stages"]
    assert [st["stage"].split(":")[0] for st in stages] == [
        "geo", "protect", "expect", "expect", "fit", "simulate", "report"
    ]
    for st in stages:
        assert st["cpu_s"] >= 0 and st["peak_rss_mb"] > 0 and st["wall_s"] >= 0
        assert 0 <= st["read_s"] <= st["wall_s"] and 0 <= st["write_s"] <= st["wall_s"]
    # the fit's CAR plan build and its time per sweep, parts of its wall time
    fit_extra, fit_wall = stages[4]["extra"], stages[4]["wall_s"] + 0.001  # wall_s is rounded
    sweeps = manifest["config"]["model"]["mcmc"]["iterations"]
    assert fit_extra["source"] == "v19" and 0 <= fit_extra["plan_s"] <= fit_wall
    assert 0 < fit_extra["sweep_us"] * 1e-6 * sweeps <= fit_wall


# sha256 of every output but the manifest, pinned when the writers rendered
# row by row through csv.writer and the reader parsed row by row
QUOTED_LABEL_OUTPUTS = {
    "expect/expected_truth.csv": "a35754d607ed52447e7a2b47f26c1a553aebd2d009259c931c3a73d1f9a87603",
    "expect/expected_v19.csv": "4d88b157a21dbc6a1e1b69cad9dc40040e60096fd7b9e841dedd5c2e48e58ba2",
    "expect/expected_v20.csv": "cea9c45f5b9522d503bacc8a2f4bc56ec13658c6c09ba2795f47c3eb44031e54",
    "expect/expected_v22.csv": "cd221e3f2a44506368b28db9910177afcf131da4e6f1d6cceb5e1874651febf0",
    "geo/adjacency.csv": "415699f731ff4ba5e6e00b0c952911e3b9fc0120c3af00f5fd832f6ca019023c",
    "geo/covariates.csv": "78cd25e3336771ccee61796d805ffba6ee4cf6ca150c1266c763f0c111dbb6c4",
    "geo/deaths.csv": "b5f6b62dedd4ea4f9e78ad2051297415fe1bca22faffcce5f6e2bf1c4221ec71",
    "geo/hierarchy.csv": "7a67557856b94152ee2e1822256d3ab170f5823385a731011c8d88ffa362a3a5",
    "geo/population.csv": "c65e20563865e3b797f7bc4cff17939ed403548b13c4d86891d109183131abe9",
    # pinned when geo began writing the statewide totals
    "geo/totals.csv": "b3b3dd7ea7e93ecab06c403d61452ad86f55cbe4f01ca59bd8de7d20e0715024",
    "protect/audit_v19.csv": "5325a8411045d4b021955ea9b529a89968b93a89234a642dbfc0e1881f6993b5",
    "protect/audit_v20.csv": "bd0de5709693e0015c50527c4ca31514114e00cfd13102281cecd3246c462afd",
    "protect/audit_v22.csv": "a48bfda8803c0e776558caf258b447e4b5a584fdb98abef17ef4560f1c06fe9a",
    "protect/protected_v19.csv": "2d3f2fdb711618df4e85116bf4d3b889501c1ef1d82868cc381dda0da6a27fb2",
    "protect/protected_v20.csv": "6422d05db754abc2d150689dd7f956d789d524b584a20de5fe1dc73ea701b900",
    "protect/protected_v22.csv": "b1d468dac64e9328f046b25334b7d3b5c2e97ce46e88a3d62dc1533704e79826",
    "report/denominators.csv": "c72032fdb1f97fd475260ff3f0ba77fe82feb351d8882c199bdacd9e81cf5f1c",
    "report/report.txt": "7a2da3a646cd77b8e4e64f3f064c6aa5ec07e63d66b6001116628e62d2de5e1e",
    # pinned when every one-block keyed table began carrying a sidecar
    "expect/expected_truth.csv.sidecar": "21f46ae9db0461e531859e2f453d17e8df89881c8e7e9bf149da08dba87e990d",
    "expect/expected_v19.csv.sidecar": "bd48f8a2e2d8c1fb051dff89b6663729b704930708c5f66e0ed55171c5ca4884",
    "expect/expected_v20.csv.sidecar": "08ed581c8b9bc7818b32828a9abf8e18e77d138052ab3a099e1f9d5d05932678",
    "expect/expected_v22.csv.sidecar": "1246b07a86d14e1f6eab59ffef5de6a91202c1d964f12f9722130826301da9b0",
    "geo/covariates.csv.sidecar": "3350e0798d3cc3eb1ba614cd9991c0d6e24f0fa14aeb4de3c0079382aad1f5a2",
    "geo/deaths.csv.sidecar": "94fe8cd5161f5fd0889e287ef470eb837624b60604b7b4e027fbedacd3b6dfdb",
    "geo/population.csv.sidecar": "86bee8a054a31d052262221076209908f29a874e008e6c0008a4baf79730efea",
    "geo/totals.csv.sidecar": "1ac5326c6ca8cb35a5819fc7c520925ce7b47b1d4424592c0a5eba7d6220a394",
    "protect/protected_v19.csv.sidecar": "6cb23b23b0aca52eb24282e38444bc52849ea4a7a5675c7b2bbf15f9923051b6",
    "protect/protected_v20.csv.sidecar": "646035c60cea2cfd75d53a1b463b3e41052c1362b126a27fc62918aa41a1fba2",
    "protect/protected_v22.csv.sidecar": "3eb661627bd8237183a43c76b5cfff4707c5f877f06d6b9c2a74e7652f1bc9e0",
    # pinned when the hierarchy began carrying a sidecar
    "geo/hierarchy.csv.sidecar": "3f1d05a68b07d0e60e9343c16b00767015562eb67f0c3749c548d7b252774664",
}


def test_quoted_age_band_labels_end_to_end(tmp_path):
    # labels with a comma, a quote and edge spaces are quoted on write and
    # read back through csv.reader by every later stage
    bands = ["0,4", '5"14', " 15-24 ", "25-34", "35-44", "45-54", "55-64"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"seed": 5, "geo": {"leaves": 24, "branching": [2, 3, 4]}, "std": {"age_bands": bands}}))
    out = tmp_path / "run"
    base = ["--config", str(cfg_path), "--out", str(out)]
    cmds = [["geo"]] + [["protect", "--variant", v] for v in ("v19", "v20", "v22")]
    cmds += [["expect", "--source", s] for s in ("truth", "v19", "v20", "v22")] + [["report"]]
    for cmd in cmds:
        result = run_cli(base + cmd)
        assert result.exit_code == 0, result.output
    assert '"0,4"' in (out / "geo" / "population.csv").read_text()
    outputs = {
        str(p.relative_to(out)): sha(p) for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"
    }
    assert outputs == QUOTED_LABEL_OUTPUTS


def test_cli_env_var_overrides_out(tmp_path):
    cfg_path = write_config(tmp_path)
    flag_dir = tmp_path / "flagdir"
    env_dir = tmp_path / "envdir"
    result = run_cli(
        ["--config", str(cfg_path), "--out", str(flag_dir), "geo"],
        env={"PRIVMAP_OUT": str(env_dir)},
    )
    assert result.exit_code == 0
    assert (env_dir / "geo" / "hierarchy.csv").exists()
    assert not flag_dir.exists()


def test_cli_seed_override_changes_outputs(tmp_path):
    cfg_path = write_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    run_cli(["--config", str(cfg_path), "--out", str(out1), "geo"])
    run_cli(["--config", str(cfg_path), "--seed", "99", "--out", str(out2), "geo"])
    assert sha(out1 / "geo" / "population.csv") != sha(out2 / "geo" / "population.csv")


def test_manifest_replay(tmp_path):
    # a manifest doubles as a config document for byte-identical replay
    cfg_path = write_config(tmp_path)
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    run_cli(["--config", str(cfg_path), "--out", str(out1), "geo"])
    manifest = out1 / "manifest.json"
    run_cli(["--config", str(manifest), "--out", str(out2), "geo"])
    assert sha(out1 / "geo" / "population.csv") == sha(out2 / "geo" / "population.csv")


# ---------------------------------------------------------------------------
# the stage harness


# each file opened is appended to ``_OPENS["paths"]`` with whether it was
# opened for reading only, while that is a list; the audit hook is installed
# once per process and does nothing otherwise
_OPENS: dict = {"paths": None, "hooked": False}


def _record_open(event, args):
    if event != "open" or _OPENS["paths"] is None or not isinstance(args[0], (str, os.PathLike)):
        return
    path, mode, flags = args  # os.open passes no mode, only flags
    reading = (flags & os.O_ACCMODE) == os.O_RDONLY if mode is None else "r" in mode and "+" not in mode
    _OPENS["paths"].append((Path(path).resolve(), reading))


def test_manifest_lists_every_file_a_stage_reads(tmp_path):
    # and every file it writes: each is opened as <name>.tmp and committed
    # under the name its manifest entry lists, the manifest itself aside
    if not _OPENS["hooked"]:
        sys.addaudithook(_record_open)
        _OPENS["hooked"] = True
    cfg = load_config(write_config(tmp_path, {"geo": {"leaves": 24, "branching": [2, 3, 4]}}))
    out = (tmp_path / "run").resolve()
    runs = [
        lambda: stage_geo(cfg, out),
        lambda: stage_protect(cfg, out, "v19"),
        lambda: stage_expect(cfg, out, "truth"),
        lambda: stage_expect(cfg, out, "v19"),
        lambda: stage_fit(cfg, out, "v19"),
        lambda: stage_simulate(cfg, out),
        lambda: stage_report(cfg, out),
    ]
    read, written = [], []
    for run in runs:
        _OPENS["paths"] = []
        try:
            run()
        finally:
            paths, _OPENS["paths"] = _OPENS["paths"], None
        opened = [(str(p.relative_to(out)), reading) for p, reading in paths if p.is_relative_to(out)]
        read.append({rel for rel, reading in opened if reading and rel != "manifest.json"})
        written.append({rel for rel, reading in opened if not reading})
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert {"geo/hierarchy.csv", "geo/adjacency.csv"} <= read[4]  # fit reads the geography
    assert {"simulate/fractions.csv", "simulate/coef_bias.csv"} <= read[6]  # report reads the study
    mismatched = {st["stage"]: (sorted(st["inputs"]), sorted(r)) for st, r in zip(stages, read) if set(st["inputs"]) != r}
    assert not mismatched, mismatched
    for st, w in zip(stages, written):
        assert {rel.removesuffix(".tmp") for rel in w if rel.endswith(".tmp")} == {*st["outputs"], "manifest.json"}
        assert all(rel.endswith(".tmp") for rel in w), (st["stage"], w)
        assert set(st) == {
            "stage", "wall_s", "cpu_s", "read_s", "write_s", "peak_rss_mb", "inputs", "outputs", "extra"
        } - ({"extra"} if st["stage"] in ("geo", "report") else set())


def _harness_offenders(source: str, module: str) -> list[str]:
    """Stage functions that open no ``_Stage``, and, in any module but
    ``tables.py``, the calls that open, write or commit a file: ``open``,
    ``os.replace``, ``.write_text`` and ``.write_bytes``. Reading the config
    or the manifest with ``read_text`` stays allowed."""
    tree = ast.parse(source)
    offenders = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("stage_") and not any(
            isinstance(item.context_expr, ast.Call) and getattr(item.context_expr.func, "id", None) == "_Stage"
            for node in ast.walk(fn) if isinstance(node, ast.With) for item in node.items
        ):
            offenders.append(f"{fn.name}: no _Stage")
    if module == "tables.py":
        return offenders
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open" or isinstance(func, ast.Attribute) and func.attr == "open":
            calls.append((node.lineno, "open("))
        elif isinstance(func, ast.Attribute) and func.attr == "replace" and getattr(func.value, "id", None) == "os":
            calls.append((node.lineno, "os.replace"))
        elif isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            calls.append((node.lineno, f".{func.attr}("))
    return offenders + [f"line {line}: {call}" for line, call in sorted(calls)]


def test_every_stage_runs_in_the_harness():
    # privmap.tables commits, hashes and times every file; no other module
    # opens, writes or renames one
    for path in sorted(Path(pipeline.__file__).parent.glob("*.py")):
        assert not _harness_offenders(path.read_text(), path.name), path.name
    bad = """
def stage_x(cfg, out_dir):
    with open(out_dir) as fh:
        os.replace(fh.name, out_dir)
    out_dir.write_text("x")
    (out_dir / "y").write_bytes(b"y")
    write_text(out_dir, json.dumps(json.loads(out_dir.read_text())))
    return out_dir.open("w")
"""
    assert _harness_offenders(bad, "pipeline.py") == [
        "stage_x: no _Stage", "line 3: open(", "line 4: os.replace", "line 5: .write_text(", "line 6: .write_bytes(",
        "line 8: open(",
    ]
    assert _harness_offenders(bad, "tables.py") == ["stage_x: no _Stage"]
