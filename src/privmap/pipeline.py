"""End-to-end pipeline stages behind a single validated config document.

Every stage runs inside one harness (``_Stage``): it gets each input path
from the harness, which records the file it hands out, writes its outputs
atomically (temp file + rename), and appends a manifest entry with the
content hashes of every file read and written, so a run can be audited and
reproduced byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
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
from .errors import ConfigError, MissingInputError, ModelError, ProtectionError, SimulationError
from .geo import (
    LAYOUTS, build_synthetic_geography, read_adjacency, read_hierarchy, write_adjacency, write_hierarchy
)
from .simulate import (
    DEFAULT_HAZARDS as DEFAULT_HAZARD_SCHEDULE,
    DgpConfig,
    run_study,
    synth_deaths,
    synth_population,
    synth_poverty,
)
from .standardize import (
    ExpectedCounts,
    expected_counts,
    percent_error,
    rates_from_cubes,
    read_expected,
    underestimation_fraction,
    write_expected,
    zero_count_percent,
)
from .tables import SECONDS, fmt, read_table, write_table
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
    if not isinstance(geo["leaves"], int) or geo["leaves"] < 4:
        raise ConfigError("geo.leaves must be an integer >= 4")
    if not isinstance(geo["branching"], list) or not all(
        isinstance(b, int) and b >= 1 for b in geo["branching"]
    ):
        raise ConfigError("geo.branching must be a list of positive integers")
    if geo["layout"] not in LAYOUTS:
        raise ConfigError(f"geo.layout must be {' or '.join(LAYOUTS)}, got {geo['layout']!r}")
    das = cfg["das"]
    if das["variant"] not in VARIANTS:
        raise ConfigError(f"das.variant must be one of {'/'.join(VARIANTS)}, got {das['variant']!r}")
    _das_config(cfg, das["variant"])
    n_levels = len(geo["branching"]) + 1
    if das["level_shares"] is not None and len(das["level_shares"]) != n_levels:
        raise ConfigError(f"das.level_shares has {len(das['level_shares'])} entries for {n_levels} geolevels")
    std = cfg["std"]
    if not isinstance(std["age_bands"], list) or len(std["age_bands"]) < 1:
        raise ConfigError("std.age_bands must be a non-empty list of labels")
    for key, value in cfg["model"]["priors"].items():
        if not (_is_num(value) and 0 < value < math.inf):
            raise ConfigError(f"model.priors.{key} must be a positive finite number, got {value!r}")
    mcmc = cfg["model"]["mcmc"]
    for key in ("iterations", "burnin", "thin"):
        if not isinstance(mcmc[key], int) or isinstance(mcmc[key], bool):
            raise ConfigError(f"model.mcmc.{key} must be an integer, got {mcmc[key]!r}")
    try:
        McmcConfig(mcmc["iterations"], mcmc["burnin"], mcmc["thin"])
    except ModelError as exc:
        raise ConfigError(f"model.mcmc: {exc}") from None
    sim = cfg["sim"]
    if not isinstance(sim["n_reps"], int) or sim["n_reps"] < 1:
        raise ConfigError("sim.n_reps must be a positive integer")
    if not isinstance(sim["beta"], list) or not all(_is_num(b) for b in sim["beta"]):
        raise ConfigError("sim.beta must be a list of numbers")
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
# stage harness: inputs, atomic writes, timings and the manifest


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_atomic(path: Path, writer) -> None:
    """Run a file-writing callable against a temp path beside ``path``, then rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    writer(tmp)
    os.replace(tmp, path)


def append_manifest(
    out_dir: Path, cfg: dict, stage: str, timings: dict, inputs: list[Path], outputs: list[Path], extra: dict
) -> None:
    """Append one stage entry to ``manifest.json``: its ``timings``, the
    sha256 of its inputs and outputs, and any stage-specific ``extra``."""
    manifest_path = out_dir / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
    else:
        manifest = {"tool": "privmap", "version": __version__, "seed": cfg["seed"], "config": cfg, "stages": []}
    entry = {
        "stage": stage,
        **timings,
        "inputs": {str(p.relative_to(out_dir)): sha256_file(p) for p in inputs},
        "outputs": {str(p.relative_to(out_dir)): sha256_file(p) for p in outputs},
    }
    if extra:
        entry["extra"] = extra
    manifest["stages"].append(entry)
    text = json.dumps(manifest, indent=2, sort_keys=True)
    _write_atomic(manifest_path, lambda p: p.write_text(text))


class _Stage:
    """One stage run: hands out input paths and records each, writes outputs
    atomically, and on a normal exit appends the manifest entry.

    ``cpu_s`` is this process's CPU time during the stage (forked
    ``--jobs`` workers not included); ``read_s`` and ``write_s`` are the
    wall time of the stage's table reads and writes (``privmap.tables``),
    parts of ``wall_s``; ``peak_rss_mb`` is the peak resident set of this
    process so far, read at the stage's end, so a stage run in the same
    process as an earlier, larger one reports that one's peak.
    """

    def __init__(self, cfg: dict, out_dir: Path, name: str, extra: dict | None = None):
        self.cfg = cfg
        self.out_dir = Path(out_dir)
        self.name = name
        self.extra = dict(extra or {})
        self.read_paths: dict[Path, None] = {}  # insertion-ordered set
        self.outputs: list[Path] = []

    def inputs(self, *rels: str) -> list[Path]:
        """The paths of input files, recorded for the manifest; all must exist."""
        paths = [self.out_dir / rel for rel in rels]
        missing = [str(p) for p in paths if not p.exists()]
        if missing:
            raise MissingInputError(f"missing stage inputs: {missing}")
        self.read_paths.update(dict.fromkeys(paths))
        return paths

    def write(self, rel: str, writer) -> None:
        path = self.out_dir / rel
        _write_atomic(path, writer)
        self.outputs.append(path)

    def result(self, **fields) -> dict:
        return {"outputs": [str(p) for p in self.outputs], **fields}

    def __enter__(self):
        self.start = time.perf_counter()
        self.cpu_start = time.process_time()
        self.io_start = dict(SECONDS)
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is not None:
            return
        read_s, write_s = (SECONDS[k] - self.io_start[k] for k in ("read", "write"))
        timings = {
            "wall_s": round(time.perf_counter() - self.start, 3),
            "cpu_s": round(time.process_time() - self.cpu_start, 3),
            "read_s": round(read_s, 3),
            "write_s": round(write_s, 3),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),  # KiB on Linux
        }
        append_manifest(self.out_dir, self.cfg, self.name, timings, list(self.read_paths), self.outputs, self.extra)


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
        st.write("geo/hierarchy.csv", lambda p: write_hierarchy(h, p))
        st.write("geo/adjacency.csv", lambda p: write_adjacency(adj, p))
        st.write("geo/population.csv", lambda p: write_tabulation(pop, p))
        st.write("geo/deaths.csv", lambda p: write_tabulation(deaths, p, value_column="deaths"))
        st.write("geo/covariates.csv", lambda p: write_covariates(p, h.leaf_ids, "poverty", poverty))
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
        st.write(f"protect/protected_{variant}.csv", lambda p: write_tabulation(protected, p))
        st.write(f"protect/audit_{variant}.csv", lambda p: write_audit(audit, p))
    return st.result()


def stage_expect(cfg: dict, out_dir: Path, source: str | None = None) -> dict:
    """Indirectly age-standardize one denominator source into expected counts."""
    source = source or "truth"
    ages, groups = _schemas(cfg)
    with _Stage(cfg, out_dir, f"expect:{source}", {"source": source}) as st:
        h = _load_hierarchy(st)
        pop_path, deaths_path = st.inputs("geo/population.csv", "geo/deaths.csv")
        pop_true = ingest(pop_path, ages, groups, h)
        deaths = ingest(deaths_path, ages, groups, h, value_column="deaths")
        # rates always come from the unprotected statewide totals
        rates = rates_from_cubes(deaths, pop_true, cfg["std"]["race_specific_rates"])
        if source == "truth":
            cube = pop_true
        else:
            cube = ingest(*st.inputs(f"protect/protected_{source}.csv"), ages, groups, h)
        ec = expected_counts(cube, rates, source)
        st.write(f"expect/expected_{source}.csv", lambda p: write_expected(ec, p))
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
        deaths_path, covariates_path = st.inputs("geo/deaths.csv", "geo/covariates.csv")
        deaths = ingest(deaths_path, ages, groups, h, value_column="deaths")
        poverty = read_covariates(covariates_path, h.leaf_ids, "poverty")
        ec, = _load_expected(st, [source], h, groups)
        priors = cfg["model"]["priors"]
        spec = build_spec(
            ec,
            poverty,
            adj,
            prior_beta_var=priors["beta_var"],
            prior_ig_shape=priors["ig_shape"],
            prior_ig_scale=priors["ig_scale"],
        )
        y = spec.flatten(deaths.values.sum(axis=1))  # events per (unit, group)
        m = cfg["model"]["mcmc"]
        seed = int(np.random.SeedSequence([cfg["seed"], 8800]).generate_state(1)[0])
        draws = fit(y, spec, McmcConfig(m["iterations"], m["burnin"], m["thin"], seed))
        summary = mrr_summary(draws)
        smr = predict_counts(draws, spec)
        st.write(f"fit/draws_{source}.csv", lambda p: write_draws(draws, p))
        payload = {
            "source": source,
            "params": summary.params,
            "mrr": summary.mrr,
            "mrr_lines": {name: summary.mrr_line(name) for name in summary.mrr},
            "converged": summary.converged,
            "accept_rates": draws.accept_rates,
            "excluded_cells": [list(c) for c in spec.excluded],
        }
        st.write(f"fit/summary_{source}.json", lambda p: p.write_text(json.dumps(payload, indent=2, sort_keys=True)))
        smr_rows = [
            [uid, grp, fmt(smr.yhat[i, g]), fmt(smr.smr[i, g])]
            for i, uid in enumerate(smr.unit_ids)
            for g, grp in enumerate(smr.groups)
        ]
        st.write(f"fit/smr_{source}.csv", lambda p: write_table(p, ["unit_id", "group", "predicted", "smr"], smr_rows))
    return st.result(converged=summary.converged)


def _write_table(path, header: list[str], rows) -> None:
    """Rows of labels and numbers, reals at 10 significant digits."""
    write_table(path, header, ([fmt(v) if isinstance(v, float) else v for v in row] for row in rows))


DENOMINATORS_HEADER = [
    "source", "group", "mean_pct_error", "sd_pct_error", "q25", "median", "q75", "under_pct", "zero_pct"
]
# the simulate tables the report reads back, as StudyReport.tables writes them
FRACTIONS_HEADER = [
    "source", "group", "mean_smr_bias", "mean_smr_mape", "upward_bias_pct",
    "underestimated_expected_pct", "zero_expected_pct",
]
COEF_BIAS_HEADER = ["source", "coefficient", "true_value", "mean_bias", "sd_bias"]


def _read_study_table(path: Path, header: list[str]) -> list[list]:
    """A simulate table's rows: two label fields naming the row, then numbers."""
    rows = list(zip(*read_table(path, header, SimulationError)))
    if len({(a, b) for a, b, *_ in rows}) != len(rows):
        raise SimulationError(f"{path}: more than one row for the same {header[0]} and {header[1]}")
    try:
        return [[a, b, *map(float, rest)] for a, b, *rest in rows]
    except ValueError as exc:
        raise SimulationError(f"{path}: {exc}") from None


def stage_simulate(cfg: dict, out_dir: Path, jobs: int = 1) -> dict:
    """Run the replicated multi-source study and emit the metric tables."""
    ages, groups = _schemas(cfg)
    sim = cfg["sim"]
    with _Stage(cfg, out_dir, "simulate", {"n_reps": sim["n_reps"]}) as st:
        h, adj = _load_geo(st)
        poverty = read_covariates(*st.inputs("geo/covariates.csv"), h.leaf_ids, "poverty")
        sources = _load_expected(st, sim["sources"], h, groups)
        dgp = DgpConfig(
            beta=tuple(sim["beta"]),
            rho=sim["rho"],
            phi_var=sim["phi_var"],
            n_reps=sim["n_reps"],
            master_seed=cfg["seed"],
        )
        m = cfg["model"]["mcmc"]
        priors = cfg["model"]["priors"]
        report = run_study(
            dgp,
            sources,
            poverty,
            adj,
            McmcConfig(m["iterations"], m["burnin"], m["thin"], 0),
            jobs=jobs,
            spec_options={
                "prior_beta_var": priors["beta_var"],
                "prior_ig_shape": priors["ig_shape"],
                "prior_ig_scale": priors["ig_scale"],
            },
        )
        tables = report.tables()
        for name in ("coef_bias", "smr_bias", "smr_mape", "fractions", "replicates"):
            st.write(f"simulate/{name}.csv", lambda p, r=tables[name]: _write_table(p, list(r[0]), map(dict.values, r)))
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
        st.write("report/denominators.csv", lambda p: _write_table(p, DENOMINATORS_HEADER, denom_rows))

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
            fractions = _read_study_table(*st.inputs("simulate/fractions.csv"), FRACTIONS_HEADER)
            for src, group, bias, mape, upward, _, _ in fractions:
                lines.append(
                    f"  {src:>6} {group:>8}: SMR bias {bias:+.4f}, MAPE {mape:.4f}, upward {upward:.2f}%"
                )
            if (st.out_dir / "simulate" / "coef_bias.csv").exists():
                lines += ["", "Coefficient bias (mean over replicates)"]
                for src, coef, _, mean_bias, _ in _read_study_table(*st.inputs("simulate/coef_bias.csv"), COEF_BIAS_HEADER):
                    lines.append(f"  {src:>6} {coef:>12}: {mean_bias:+.5f}")
        lines.append("")
        st.write("report/report.txt", lambda p: p.write_text("\n".join(lines)))
    return st.result()
