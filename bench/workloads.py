"""The benchmark's workloads: how each builds its inputs from a seed,
runs one timed pass, and checks what the pass produced.

Library functions are called through their module attribute
(``simulate.run_study``), so the tracer's patches take effect.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from privmap import das, geo, pipeline, simulate, standardize
from privmap.carmodel import McmcConfig, build_spec, fit
from privmap.tabulation import default_age_schema, default_group_schema

VARIANTS = ("v19", "v20", "v22")
SOURCES = ("truth",) + VARIANTS


@dataclass
class StudyInputs:
    population: object
    protected: dict
    adjacency: object
    sources: list
    poverty: np.ndarray


@dataclass(frozen=True)
class Study:
    """Protected sources built in set-up; each pass runs ``simulate.run_study``."""

    leaves: int
    branching: tuple[int, ...]
    layout: str
    mcmc: tuple[int, int, int]  # iterations, burn-in, thinning
    reps: int

    @property
    def ops_per_pass(self) -> int:
        return self.reps * len(SOURCES)

    @property
    def items_per_pass(self) -> int:
        """Fits per pass: replicates x sources."""
        return self.ops_per_pass

    def make_inputs(self, seed: int, out_dir: Path) -> StudyInputs:
        h, adj = geo.build_synthetic_geography(self.leaves, list(self.branching), self.layout, seed)
        pop = simulate.synth_population(h, default_age_schema(), default_group_schema(), seed=seed)
        deaths = simulate.synth_deaths(pop, seed=seed)
        rates = standardize.rates_from_cubes(deaths, pop, True)
        sources = [standardize.expected_counts(pop, rates, "truth")]
        protected = {}
        for variant in VARIANTS:
            protected[variant], _ = das.run_topdown(pop, das.das_preset(variant, seed=seed + 1))
            sources.append(standardize.expected_counts(protected[variant], rates, variant))
        return StudyInputs(pop, protected, adj, sources, simulate.synth_poverty(self.leaves, seed=seed))

    def warm_inputs(self, inputs: StudyInputs, seed: int) -> None:
        # first CAR-prior factorization at the workload's size; through the
        # simulate namespace, where the tracer records it
        simulate.sample_car_prior(inputs.adjacency, 0.2, 1.0, np.random.default_rng(seed))

    def check_inputs(self, inputs: StudyInputs) -> dict[str, bool]:
        total = inputs.population.values.sum()
        checks = {}
        for variant, cube in inputs.protected.items():
            checks[f"protected_{variant}_cells"] = _nonneg_integers(cube.values)
            checks[f"protected_{variant}_total"] = bool(cube.values.sum() == total)
        for ec in inputs.sources:
            checks[f"expected_{ec.source}"] = _finite_nonneg(ec.values)
        return checks

    def run_pass(self, inputs: StudyInputs, seed: int, pass_dir: Path):
        dgp = simulate.DgpConfig(n_reps=self.reps, master_seed=seed)
        return simulate.run_study(
            dgp, inputs.sources, inputs.poverty, inputs.adjacency, McmcConfig(*self.mcmc, seed=0), jobs=1
        )

    def check_pass(self, report, pass_dir: Path) -> tuple[dict[str, bool], str, int]:
        """Checks, output digest, and bytes written (none: studies stay in memory)."""
        tables = report.tables()
        fits = sum(len(report.coef_estimates[s]) for s in report.sources)
        estimates = [row["estimate"] for row in tables["replicates"]]
        floats = [v for rows in tables.values() for row in rows for v in row.values() if isinstance(v, float)]
        checks = {
            "fit_count": fits == self.reps * len(SOURCES) and tuple(report.sources) == SOURCES,
            "coefficients_finite": all(math.isfinite(v) for v in estimates),
            "tables_finite_where_defined": not any(math.isinf(v) for v in floats),
        }
        digest = hashlib.sha256(json.dumps(tables, sort_keys=True).encode()).hexdigest()
        return checks, digest, 0

    def fit_setup_s(self, inputs: StudyInputs, seed: int) -> list[float]:
        """Wall times of up to three 2-iteration fits on the truth spec, for
        about 3 s: the per-fit set-up (coloring, eigen-decomposition) with
        almost no sweeps."""
        truth = inputs.sources[0]
        spec = build_spec(truth, inputs.poverty, inputs.adjacency)
        dgp = simulate.DgpConfig(n_reps=1, master_seed=seed)
        data = simulate.generate_dataset(dgp, truth, inputs.poverty, inputs.adjacency, 0)
        y = spec.flatten(data.y)
        times = []
        start = time.perf_counter()
        while len(times) < 3 and (not times or time.perf_counter() - start < 3.0):
            t = time.perf_counter()
            fit(y, spec, McmcConfig(2, 1, 1, seed=0))
            times.append(time.perf_counter() - t)
        return times


STAGES = ["geo"] + [f"protect:{v}" for v in VARIANTS] + [f"expect:{s}" for s in SOURCES] + ["report"]
REPORT_FILES = ("report/denominators.csv", "report/report.txt")


@dataclass(frozen=True)
class Pipeline:
    """The CLI stages geo -> protect x3 -> expect x4 -> report in one process."""

    leaves: int
    branching: tuple[int, ...]

    ops_per_pass = len(STAGES)

    @property
    def items_per_pass(self) -> int:
        """Leaf cube cells (leaves x age bands x groups) x protected variants."""
        return self.leaves * len(pipeline.DEFAULT_AGE_BANDS) * len(default_group_schema().groups) * len(VARIANTS)

    def make_inputs(self, seed: int, out_dir: Path) -> dict:
        path = out_dir / "config.json"
        path.write_text(
            json.dumps({"geo": {"leaves": self.leaves, "branching": list(self.branching), "layout": "grid"}})
        )
        return pipeline.load_config(path, seed_override=seed)

    def warm_inputs(self, cfg: dict, seed: int) -> None:
        pass

    def check_inputs(self, cfg: dict) -> dict[str, bool]:
        return {}

    def run_pass(self, cfg: dict, seed: int, pass_dir: Path) -> None:
        pipeline.stage_geo(cfg, pass_dir)
        for variant in VARIANTS:
            pipeline.stage_protect(cfg, pass_dir, variant)
        for source in SOURCES:
            pipeline.stage_expect(cfg, pass_dir, source)
        pipeline.stage_report(cfg, pass_dir)

    def check_pass(self, _, pass_dir: Path) -> tuple[dict[str, bool], str, int]:
        manifest = json.loads((pass_dir / "manifest.json").read_text())
        listed = [rel for st in manifest["stages"] for rel in st["outputs"]]
        checks = {
            "manifest_stages": [st["stage"] for st in manifest["stages"]] == STAGES,
            "outputs_exist": all((pass_dir / rel).is_file() for rel in listed + list(REPORT_FILES)),
        }
        total = sum(int(v) for v in _last_column(pass_dir / "geo" / "population.csv"))
        for variant in VARIANTS:
            counts = _last_column(pass_dir / "protect" / f"protected_{variant}.csv")
            checks[f"protected_{variant}_cells"] = all(v.isdigit() for v in counts)
            checks[f"protected_{variant}_total"] = checks[f"protected_{variant}_cells"] and (
                sum(int(v) for v in counts) == total
            )
        for source in SOURCES:
            values = np.array(_last_column(pass_dir / "expect" / f"expected_{source}.csv"), dtype=float)
            checks[f"expected_{source}"] = _finite_nonneg(values)
        files = sorted(p for p in pass_dir.rglob("*") if p.is_file())
        digest = hashlib.sha256()
        for path in files:
            if path.name != "manifest.json":  # the manifest carries stage wall times
                digest.update(str(path.relative_to(pass_dir)).encode())
                digest.update(path.read_bytes())
        return checks, digest.hexdigest(), sum(p.stat().st_size for p in files)

    def fit_setup_s(self, cfg: dict, seed: int) -> None:
        return None


def _last_column(path: Path) -> list[str]:
    with open(path) as fh:
        next(fh)
        return [line.rstrip().rsplit(",", 1)[1] for line in fh]


def _nonneg_integers(values: np.ndarray) -> bool:
    return bool(np.all(values >= 0) and np.all(values == np.round(values)))


def _finite_nonneg(values: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(values)) and np.all(values >= 0))


# full-size workloads; why each was chosen is in README.md
WORKLOADS = {
    "study-3k": Study(3000, (2, 3, 5, 10, 10), "random-planar", (600, 300, 3), reps=1),
    "pipeline-10k": Pipeline(10_000, (4, 5, 5, 10, 10)),
}

# toy sizes of the same shapes: the warm-up before timing, and the smoke test
TOY = {
    "study-3k": Study(24, (2, 3, 4), "random-planar", (110, 10, 1), reps=1),
    "pipeline-10k": Pipeline(48, (3, 4, 4)),
}
