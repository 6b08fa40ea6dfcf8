"""End-to-end pipeline stages behind a single validated config document.

Every stage runs inside one harness (``_Stage``): it gets each input path
from the harness, which checks that the file exists, and on a normal exit
appends a manifest entry with the content hashes of every file the stage
read and wrote, so a run can be audited and reproduced byte-for-byte. Each
file is read and written through ``privmap.tables``, which commits a write
whole and records each hash from the bytes as they stream; the manifest
hashes nothing itself.
"""

from __future__ import annotations

import json
import math
import resource
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .carmodel import McmcConfig, build_spec, fit, mrr_summary, predict_counts, write_draws
from .das import (
    VARIANTS, DasConfig, NoiseModel, PrivacyBudget, das_preset, run_topdown, write_audit
)
from .errors import (
    ConfigError, GeographyError, MissingInputError, ModelError, ProtectionError, SimulationError, TabulationError
)
from .geo import (
    build_synthetic_geography, check_geography, read_adjacency, read_hierarchy, write_adjacency, write_hierarchy
)
from .simulate import (
    DEFAULT_HAZARDS as DEFAULT_HAZARD_SCHEDULE,
    TABLES,
    DgpConfig,
    run_study,
    synth_deaths,
    synth_population,
    synth_poverty,
)
from .standardize import (
    ExpectedCounts,
    check_totals,
    expected_counts,
    percent_error,
    rates_from_cubes,
    read_expected,
    read_totals,
    underestimation_fraction,
    write_expected,
    write_totals,
    zero_count_percent,
)
from .tables import RECORD, number, read_table, write_table, write_text
from .tables import sha256_file  # unused here: bench/tracing.py patches it in this module
from .tabulation import (
    DEFAULT_AGE_BANDS,
    AgeSchema,
    GroupSchema,
    default_group_schema,
    ingest,
    read_covariates,
    write_covariates,
    write_tabulation,
)


# ---------------------------------------------------------------------------
# config schema


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_eps(v):
    if v is None:
        return None
    if isinstance(v, str) and v.lower() in ("inf", "infinity"):
        return math.inf
    if _is_num(v) and v > 0:
        return float(v)
    raise ConfigError(f"epsilon_total must be a positive number or 'inf', got {v!r}")


DEFAULT_CONFIG = {
    "seed": 0,
    "geo": {"leaves": 300, "branching": [2, 2, 3, 5, 5], "layout": "grid"},
    "das": {
        "variant": "v19",
        "epsilon_total": None,
        "level_shares": None,
        "pass_shares": None,
        "noise_family": "discrete-laplace",
    },
    "std": {"age_bands": DEFAULT_AGE_BANDS, "race_specific_rates": True},
    "model": {
        "priors": {"beta_var": 1e5, "ig_shape": 1.0, "ig_scale": 0.01},
        "mcmc": {"iterations": 2400, "burnin": 1200, "thin": 4},
    },
    "sim": {
        "n_reps": 50,
        "beta": [0.0, 0.4, 0.01],
        "rho": 0.2,
        "phi_var": 0.25,
        "minority_ratio": 12.0,
        "pop_scale": 174.0,
        "minority_sigma": 0.7,
        "hazard_scale": 1.0,
        "sources": ["truth", "v19", "v20", "v22"],
    },
    "io": {"out": "privmap-out"},
}


def _merge_section(defaults: dict, given: dict, path: str) -> dict:
    out = {}
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path}{key!r}")
        if isinstance(defaults[key], dict) and defaults[key]:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path}{key!r} must be a section")
            out[key] = _merge_section(defaults[key], value, f"{path}{key}.")
        else:
            out[key] = value
    for key, value in defaults.items():
        if key not in out:
            out[key] = json.loads(json.dumps(value)) if isinstance(value, (dict, list)) else value
    return out


def load_config(path: str | Path | None = None, seed_override: int | None = None) -> dict:
    """Parse, validate, and fill defaults; unknown keys are rejected.

    A manifest file is also accepted: its embedded resolved config is used,
    which makes any finished run replayable as-is.
    """
    if path is None:
        raw = {}
    else:
        p = Path(path)
        if not p.exists():
            raise MissingInputError(f"config file {p} does not exist")
        try:
            raw = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {p} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a JSON object")
        if "config" in raw and "stages" in raw:  # replay from a manifest
            raw = raw["config"]
    cfg = _merge_section(DEFAULT_CONFIG, raw, "")
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    if not isinstance(cfg["seed"], int) or isinstance(cfg["seed"], bool) or cfg["seed"] < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg['seed']!r}")
    geo = cfg["geo"]
    try:
        check_geography(geo["leaves"], geo["branching"], geo["layout"])
    except GeographyError as exc:
        raise ConfigError(f"geo: {exc}") from None
    das = cfg["das"]
    if das["variant"] not in VARIANTS:
        raise ConfigError(f"das.variant must be one of {'/'.join(VARIANTS)}, got {das['variant']!r}")
    _das_config(cfg, das["variant"])
    n_levels = len(geo["branching"]) + 1
    if das["level_shares"] is not None and len(das["level_shares"]) != n_levels:
        raise ConfigError(f"das.level_shares has {len(das['level_shares'])} entries for {n_levels} geolevels")
    bands = cfg["std"]["age_bands"]
    if not isinstance(bands, list) or not all(isinstance(band, str) for band in bands):
        raise ConfigError(f"std.age_bands must be a list of string labels, got {bands!r}")
    try:
        AgeSchema(tuple(bands))
    except TabulationError as exc:
        raise ConfigError(f"std.age_bands: {exc}") from None
    for key, value in cfg["model"]["priors"].items():
        if not (_is_num(value) and 0 < value < math.inf):
            raise ConfigError(f"model.priors.{key} must be a positive finite number, got {value!r}")
    mcmc = cfg["model"]["mcmc"]
    for key in ("iterations", "burnin", "thin"):
        if not isinstance(mcmc[key], int) or isinstance(mcmc[key], bool):
            raise ConfigError(f"model.mcmc.{key} must be an integer, got {mcmc[key]!r}")
    try:
        _mcmc_config(cfg, seed=0)
    except ModelError as exc:
        raise ConfigError(f"model.mcmc: {exc}") from None
    sim = cfg["sim"]
    if not isinstance(sim["n_reps"], int) or isinstance(sim["n_reps"], bool):
        raise ConfigError(f"sim.n_reps must be an integer, got {sim['n_reps']!r}")
    if not isinstance(sim["beta"], list) or not all(_is_num(b) for b in sim["beta"]):
        raise ConfigError("sim.beta must be a list of numbers")
    for key in ("rho", "phi_var", "minority_ratio", "pop_scale", "minority_sigma", "hazard_scale"):
        if not (_is_num(sim[key]) and -math.inf < sim[key] < math.inf):
            raise ConfigError(f"sim.{key} must be a finite number, got {sim[key]!r}")
    for key in ("minority_ratio", "pop_scale"):  # their ratio is a lognormal's mean
        if sim[key] <= 0:
            raise ConfigError(f"sim.{key} must be positive, got {sim[key]!r}")
    for key in ("minority_sigma", "hazard_scale"):  # a lognormal's spread, a hazard multiplier
        if sim[key] < 0:
            raise ConfigError(f"sim.{key} must be non-negative, got {sim[key]!r}")
    try:
        _dgp_config(cfg)
    except SimulationError as exc:
        raise ConfigError(f"sim: {exc}") from None
    if not isinstance(sim["sources"], list) or "truth" not in sim["sources"]:
        raise ConfigError("sim.sources must be a list containing 'truth'")
    for src in sim["sources"]:
        if src != "truth" and src not in VARIANTS:
            raise ConfigError(f"unknown simulation source {src!r}")
        # protect runs every source's variant with this same das section
        if src not in ("truth", das["variant"]):
            try:
                _das_config(cfg, src)
            except ConfigError as exc:
                raise ConfigError(f"sim.sources {src}: {exc}") from None


# ---------------------------------------------------------------------------
# stage harness: inputs, timings and the manifest


def append_manifest(
    out_dir: Path, cfg: dict, stage: str, timings: dict, inputs: dict, outputs: dict, extra: dict
) -> None:
    """Append one stage entry to ``manifest.json``: its ``timings``, the
    sha256 of its ``inputs`` and ``outputs``, by path, and any
    stage-specific ``extra``."""
    manifest_path = out_dir / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
    else:
        manifest = {"tool": "privmap", "version": __version__, "seed": cfg["seed"], "config": cfg, "stages": []}
    entry = {
        "stage": stage,
        **timings,
        "inputs": {str(p.relative_to(out_dir)): digest for p, digest in inputs.items()},
        "outputs": {str(p.relative_to(out_dir)): digest for p, digest in outputs.items()},
    }
    if extra:
        entry["extra"] = extra
    manifest["stages"].append(entry)
    write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True))


class _Stage:
    """One stage run: hands out input paths, each checked to exist, and on
    a normal exit appends the manifest entry, taken from ``tables.RECORD``,
    which it resets as it starts: the files the stage read and wrote, each
    with the sha256 of the bytes as they streamed, and its timings.

    ``cpu_s`` is this process's CPU time during the stage (forked
    ``--jobs`` workers not included); ``read_s`` and ``write_s`` are the
    wall time the stage had a file open for reading and for writing through
    ``privmap.tables``, parts of ``wall_s``; ``peak_rss_mb`` is the peak
    resident set of this process so far, read at the stage's end, so a
    stage run in the same process as an earlier, larger one reports that
    one's peak.
    """

    def __init__(self, cfg: dict, out_dir: Path, name: str, extra: dict | None = None):
        self.cfg = cfg
        self.out_dir = Path(out_dir)
        self.name = name
        self.extra = dict(extra or {})

    def inputs(self, *rels: str) -> list[Path]:
        """The paths of input files, all of which must exist."""
        paths = [self.out_dir / rel for rel in rels]
        missing = [str(p) for p in paths if not p.exists()]
        if missing:
            raise MissingInputError(f"missing stage inputs: {missing}")
        return paths

    def result(self, **fields) -> dict:
        return {"outputs": self.outputs, **fields}

    def __enter__(self):
        self.start = time.perf_counter()
        self.cpu_start = time.process_time()
        RECORD.reset()
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is not None:
            return
        timings = {
            "wall_s": round(time.perf_counter() - self.start, 3),
            "cpu_s": round(time.process_time() - self.cpu_start, 3),
            "read_s": round(RECORD.seconds["read"], 3),
            "write_s": round(RECORD.seconds["write"], 3),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),  # KiB on Linux
        }
        read, written = RECORD.digests["read"], RECORD.digests["write"]
        self.outputs = [str(p) for p in written]  # taken before the manifest's own write joins them
        append_manifest(self.out_dir, self.cfg, self.name, timings, read, written, self.extra)


# ---------------------------------------------------------------------------
# shared loaders


def _schemas(cfg) -> tuple[AgeSchema, GroupSchema]:
    return AgeSchema(tuple(cfg["std"]["age_bands"])), default_group_schema()


def _load_hierarchy(st: _Stage):
    return read_hierarchy(*st.inputs("geo/hierarchy.csv"))


def _load_geo(st: _Stage):
    h = _load_hierarchy(st)
    return h, read_adjacency(*st.inputs("geo/adjacency.csv"), h.leaf_ids)


def _das_seed(cfg, variant: str) -> int:
    vidx = VARIANTS.index(variant)
    return int(np.random.SeedSequence([cfg["seed"], 7700 + vidx]).generate_state(1)[0])


def _das_config(cfg, variant: str) -> DasConfig:
    """The mechanism configuration ``protect`` runs for ``variant``.

    ``das.epsilon_total`` applies to ``das.variant`` (a preset's must equal
    its pinned value) and to ``custom``; another preset keeps its pinned
    budget, and ``"inf"`` turns the noise off for every variant. Any fault,
    the budget's own checks included, is a ``ConfigError``.
    """
    das = cfg["das"]
    eps = _parse_eps(das["epsilon_total"])
    seed = _das_seed(cfg, variant)
    shares, passes = das["level_shares"], das["pass_shares"]
    for key, value in (("level_shares", shares), ("pass_shares", passes)):
        if value is not None and not (isinstance(value, list) and all(map(_is_num, value))):
            raise ConfigError(f"das.{key} must be a list of numbers, got {value!r}")
    try:
        if variant == "custom":
            if eps is None:
                raise ConfigError("das.variant 'custom' requires das.epsilon_total")
            return DasConfig(variant, PrivacyBudget(eps, shares, passes), NoiseModel(das["noise_family"]), seed)
        config = das_preset(variant, seed, das["noise_family"], shares, passes)
        if eps is None or (variant != das["variant"] and not math.isinf(eps)):
            return config
        return DasConfig(variant, replace(config.budget, epsilon_total=eps), config.noise, seed)
    except ProtectionError as exc:
        raise ConfigError(f"das: {exc}") from None


def _mcmc_config(cfg, seed: int) -> McmcConfig:
    m = cfg["model"]["mcmc"]
    return McmcConfig(m["iterations"], m["burnin"], m["thin"], seed)


def _dgp_config(cfg) -> DgpConfig:
    sim = cfg["sim"]
    return DgpConfig(
        tuple(sim["beta"]), sim["rho"], phi_var=sim["phi_var"], n_reps=sim["n_reps"], master_seed=cfg["seed"]
    )


def _prior_options(cfg) -> dict:
    """``build_spec``'s prior keywords, from ``model.priors``."""
    priors = cfg["model"]["priors"]
    return {
        "prior_beta_var": priors["beta_var"],
        "prior_ig_shape": priors["ig_shape"],
        "prior_ig_scale": priors["ig_scale"],
    }


# ---------------------------------------------------------------------------
# stages


def stage_geo(cfg: dict, out_dir: Path) -> dict:
    """Synthesize geography, population, events registry, and covariates."""
    ages, groups = _schemas(cfg)
    geo = cfg["geo"]
    with _Stage(cfg, out_dir, "geo") as st:
        h, adj = build_synthetic_geography(
            geo["leaves"], geo["branching"], geo["layout"], cfg["seed"]
        )
        pop = synth_population(
            h,
            ages,
            groups,
            minority_ratio=cfg["sim"]["minority_ratio"],
            pop_scale=cfg["sim"]["pop_scale"],
            minority_sigma=cfg["sim"]["minority_sigma"],
            seed=cfg["seed"],
        )
        if ages.n == len(DEFAULT_HAZARD_SCHEDULE):
            hazards = DEFAULT_HAZARD_SCHEDULE
        else:  # resample the age-rising schedule onto the configured bands
            xs = np.linspace(0, 1, len(DEFAULT_HAZARD_SCHEDULE))
            hazards = tuple(np.interp(np.linspace(0, 1, ages.n), xs, DEFAULT_HAZARD_SCHEDULE))
        deaths = synth_deaths(pop, hazards, seed=cfg["seed"], hazard_scale=cfg["sim"]["hazard_scale"])
        poverty = synth_poverty(len(h.leaf_ids), seed=cfg["seed"])
        write_hierarchy(h, st.out_dir / "geo/hierarchy.csv")
        write_adjacency(adj, st.out_dir / "geo/adjacency.csv")
        write_tabulation(pop, st.out_dir / "geo/population.csv")
        write_tabulation(deaths, st.out_dir / "geo/deaths.csv", value_column="deaths")
        write_totals(pop, deaths, st.out_dir / "geo/totals.csv")
        write_covariates(st.out_dir / "geo/covariates.csv", h.leaf_ids, "poverty", poverty)
    return st.result()


def stage_protect(cfg: dict, out_dir: Path, variant: str | None = None) -> dict:
    """Apply the top-down mechanism to the true population cube."""
    variant = variant or cfg["das"]["variant"]
    ages, groups = _schemas(cfg)
    with _Stage(cfg, out_dir, f"protect:{variant}", {"variant": variant}) as st:
        h = _load_hierarchy(st)
        pop = ingest(*st.inputs("geo/population.csv"), ages, groups, h)
        config = _das_config(cfg, variant)
        eps, passes = config.budget.epsilon_total, config.budget.pass_shares
        st.extra.update(epsilon_total=eps if math.isfinite(eps) else "inf", pass_shares=passes)
        protected, audit = run_topdown(pop, config)
        write_tabulation(protected, st.out_dir / f"protect/protected_{variant}.csv")
        write_audit(audit, st.out_dir / f"protect/audit_{variant}.csv")
    return st.result()


def stage_expect(cfg: dict, out_dir: Path, source: str | None = None) -> dict:
    """Indirectly age-standardize one denominator source into expected counts."""
    source = source or "truth"
    ages, groups = _schemas(cfg)
    with _Stage(cfg, out_dir, f"expect:{source}", {"source": source}) as st:
        h = _load_hierarchy(st)
        totals_path, = st.inputs("geo/totals.csv")
        # rates always come from the unprotected statewide totals
        population, deaths = read_totals(totals_path, h, ages, groups)
        rates = rates_from_cubes(deaths, population, cfg["std"]["race_specific_rates"])
        cube_path, = st.inputs("geo/population.csv" if source == "truth" else f"protect/protected_{source}.csv")
        cube = ingest(cube_path, ages, groups, h)
        check_totals(cube, cube_path, population, totals_path, per_stratum=source == "truth")
        ec = expected_counts(cube, rates, source)
        write_expected(ec, st.out_dir / f"expect/expected_{source}.csv")
    return st.result()


def _load_expected(st: _Stage, sources: list[str], h, groups) -> list[ExpectedCounts]:
    paths = st.inputs(*(f"expect/expected_{s}.csv" for s in sources))
    return [read_expected(path, h.leaf_ids, groups.groups, s) for path, s in zip(paths, sources)]


def stage_fit(cfg: dict, out_dir: Path, source: str | None = None) -> dict:
    """Fit the spatial model to the observed event counts with one source's
    expected counts as offsets."""
    source = source or "truth"
    ages, groups = _schemas(cfg)
    with _Stage(cfg, out_dir, f"fit:{source}", {"source": source}) as st:
        h, adj = _load_geo(st)
        deaths = ingest(*st.inputs("geo/deaths.csv"), ages, groups, h, value_column="deaths")
        poverty = read_covariates(*st.inputs("geo/covariates.csv"), h.leaf_ids, "poverty")
        ec, = _load_expected(st, [source], h, groups)
        start = time.perf_counter()
        spec = build_spec(ec, poverty, adj, **_prior_options(cfg))
        plan_s = time.perf_counter() - start  # build_spec builds the CAR plan
        y = spec.flatten(deaths.values.sum(axis=1))  # events per (unit, group)
        mcmc = _mcmc_config(cfg, int(np.random.SeedSequence([cfg["seed"], 8800]).generate_state(1)[0]))
        start = time.perf_counter()
        draws = fit(y, spec, mcmc)
        sweep_us = (time.perf_counter() - start) / mcmc.iterations * 1e6
        # the manifest is never byte-compared, so timings may go in it
        st.extra.update(plan_s=round(plan_s, 3), sweep_us=round(sweep_us, 1))
        summary = mrr_summary(draws)
        smr = predict_counts(draws, spec)
        write_draws(draws, st.out_dir / f"fit/draws_{source}.csv")
        payload = {
            "source": source,
            "params": summary.params,
            "mrr": summary.mrr,
            "mrr_lines": {name: summary.mrr_line(name) for name in summary.mrr},
            "converged": summary.converged,
            "accept_rates": draws.accept_rates,
            "excluded_cells": [list(c) for c in spec.excluded],
        }
        write_text(st.out_dir / f"fit/summary_{source}.json", json.dumps(payload, indent=2, sort_keys=True))
        smr_rows = [
            [uid, grp, smr.yhat[i, g], smr.smr[i, g]]
            for i, uid in enumerate(smr.unit_ids)
            for g, grp in enumerate(smr.groups)
        ]
        write_table(st.out_dir / f"fit/smr_{source}.csv", ["unit_id", "group", "predicted", "smr"], smr_rows)
    return st.result(converged=summary.converged)


DENOMINATORS_HEADER = [
    "source", "group", "mean_pct_error", "sd_pct_error", "q25", "median", "q75", "under_pct", "zero_pct"
]


def _read_study_table(path: Path, header: list[str]) -> list[list]:
    """A simulate table's rows: two label fields naming the row, then numbers."""
    rows = read_table(path, header, SimulationError)
    if len({(a, b) for a, b, *_ in rows}) != len(rows):
        raise SimulationError(f"{path}: more than one row for the same {header[0]} and {header[1]}")
    table = []
    for a, b, *rest in rows:
        table.append([a, b])
        for column, text in zip(header[2:], rest):
            try:
                table[-1].append(number(text))
            except ValueError:
                raise SimulationError(f"{path}: value {text!r} of cell ({a}, {b}, {column}) is not a number") from None
    return table


def stage_simulate(cfg: dict, out_dir: Path, jobs: int = 1) -> dict:
    """Run the replicated multi-source study and emit the metric tables."""
    ages, groups = _schemas(cfg)
    sim = cfg["sim"]
    with _Stage(cfg, out_dir, "simulate", {"n_reps": sim["n_reps"]}) as st:
        h, adj = _load_geo(st)
        poverty = read_covariates(*st.inputs("geo/covariates.csv"), h.leaf_ids, "poverty")
        sources = _load_expected(st, sim["sources"], h, groups)
        mcmc = _mcmc_config(cfg, seed=0)
        report = run_study(_dgp_config(cfg), sources, poverty, adj, mcmc, jobs=jobs, spec_options=_prior_options(cfg))
        for name, rows in report.tables().items():
            write_table(st.out_dir / f"simulate/{name}.csv", TABLES[name], map(dict.values, rows))
        st.extra["convergence"] = {src: report.convergence[src] for src in report.sources}
    return st.result(report=report)


def stage_report(cfg: dict, out_dir: Path) -> dict:
    """Denominator-error comparison plus a readable digest of the study."""
    ages, groups = _schemas(cfg)
    sim = cfg["sim"]
    with _Stage(cfg, out_dir, "report") as st:
        h = _load_hierarchy(st)
        sources = dict(zip(sim["sources"], _load_expected(st, sim["sources"], h, groups)))
        truth = sources["truth"]
        denom_rows = []  # one row per source and group, in DENOMINATORS_HEADER order
        for s, ec in sources.items():
            zp = zero_count_percent(ec)
            if s == "truth":
                denom_rows += [[s, group, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, zp[group]] for group in ec.groups]
                continue
            pe = percent_error(ec, truth)
            under = underestimation_fraction(ec, truth)
            for group in ec.groups:
                stats = [pe.summary[group].get(k, math.nan) for k in ("mean", "sd", "q25", "median", "q75")]
                denom_rows.append([s, group, *stats, under[group], zp[group]])
        write_table(st.out_dir / "report/denominators.csv", DENOMINATORS_HEADER, denom_rows)

        lines = ["privmap study report", "====================", ""]
        lines.append("Denominator accuracy against the unprotected source")
        for src, group, mean, sd, _, _, _, under_pct, zero_pct in denom_rows:
            lines.append(
                f"  {src:>6} {group:>8}: mean %err {mean:+.3f}, sd {sd:.3f}, "
                f"under-estimated {under_pct:.2f}%, zero cells {zero_pct:.2f}%"
            )
        # the study digest is optional: only a simulated run has these tables
        if (st.out_dir / "simulate" / "fractions.csv").exists():
            lines += ["", "Simulation study (per source and group)"]
            fractions = _read_study_table(*st.inputs("simulate/fractions.csv"), TABLES["fractions"])
            for src, group, bias, mape, upward, _, _ in fractions:
                lines.append(
                    f"  {src:>6} {group:>8}: SMR bias {bias:+.4f}, MAPE {mape:.4f}, upward {upward:.2f}%"
                )
            if (st.out_dir / "simulate" / "coef_bias.csv").exists():
                lines += ["", "Coefficient bias (mean over replicates)"]
                coef_bias = _read_study_table(*st.inputs("simulate/coef_bias.csv"), TABLES["coef_bias"])
                for src, coef, _, mean_bias, _ in coef_bias:
                    lines.append(f"  {src:>6} {coef:>12}: {mean_bias:+.5f}")
        lines.append("")
        write_text(st.out_dir / "report/report.txt", "\n".join(lines))
    return st.result()
