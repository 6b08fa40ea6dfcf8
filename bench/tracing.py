"""In-memory call spans around privmap's public functions, and the per-layer
metrics derived from them.

The benchmark records spans from its own files: each traced function is
replaced, for the duration of a traced phase, by a wrapper in the namespace
of the module that calls it. privmap modules import names directly
(``from .carmodel import fit``), so patching only the defining module would
record nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time

import numpy as np
import scipy.special
import scipy.stats

MODULES = ("geo", "tabulation", "das", "standardize", "carmodel", "simulate", "pipeline")

# root spans the benchmark opens itself; every library span nests in one
SETUP = "bench.setup"
PASS = "bench.pass"
WARM = "bench.warm"


def _variant(args, kwargs, result):
    return {"variant": args[1].variant}


def _rows(args, kwargs, result):
    return {"rows": int(result.values.size)}


def _bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _draws(args, kwargs, result):
    # keep references only; ESS is computed after the run so it is not
    # charged to the caller's self time
    return {
        "iterations": result.mcmc.iterations,
        "accept": dict(result.accept_rates),
        "beta": result.beta,
    }


def _converged(args, kwargs, result):
    return {"converged": bool(result.converged)}


# (calling module, attribute, span name, attribute hook)
PATCHES = [
    ("privmap.geo", "build_synthetic_geography", "geo.build_synthetic_geography", None),
    ("privmap.pipeline", "build_synthetic_geography", "geo.build_synthetic_geography", None),
    ("privmap.pipeline", "read_hierarchy", "geo.read_hierarchy", None),
    ("privmap.pipeline", "read_adjacency", "geo.read_adjacency", None),
    ("privmap.pipeline", "write_hierarchy", "geo.write_hierarchy", None),
    ("privmap.pipeline", "write_adjacency", "geo.write_adjacency", None),
    ("privmap.pipeline", "ingest", "tabulation.ingest", _rows),
    ("privmap.pipeline", "write_tabulation", "tabulation.write_tabulation", None),
    ("privmap.pipeline", "write_covariates", "tabulation.write_covariates", None),
    ("privmap.das", "leveled_cubes", "tabulation.leveled_cubes", None),
    ("privmap.das", "run_topdown", "das.run_topdown", _variant),
    ("privmap.pipeline", "run_topdown", "das.run_topdown", _variant),
    ("privmap.das", "inject_noise", "das.inject_noise", None),
    ("privmap.das", "project_children", "das.project_children", None),
    ("privmap.das", "controlled_round", "das.controlled_round", None),
    ("privmap.pipeline", "write_audit", "das.write_audit", None),
    ("privmap.standardize", "rates_from_cubes", "standardize.rates_from_cubes", None),
    ("privmap.pipeline", "rates_from_cubes", "standardize.rates_from_cubes", None),
    ("privmap.standardize", "expected_counts", "standardize.expected_counts", None),
    ("privmap.pipeline", "expected_counts", "standardize.expected_counts", None),
    ("privmap.pipeline", "read_expected", "standardize.read_expected", None),
    ("privmap.pipeline", "write_expected", "standardize.write_expected", None),
    ("privmap.simulate", "build_spec", "carmodel.build_spec", None),
    ("privmap.simulate", "fit", "carmodel.fit", _draws),
    ("privmap.simulate", "sample_car_prior", "carmodel.sample_car_prior", None),
    ("privmap.simulate", "mrr_summary", "carmodel.mrr_summary", _converged),
    ("privmap.simulate", "predict_counts", "carmodel.predict_counts", None),
    ("privmap.simulate", "synth_population", "simulate.synth_population", None),
    ("privmap.simulate", "synth_deaths", "simulate.synth_deaths", None),
    ("privmap.simulate", "synth_poverty", "simulate.synth_poverty", None),
    ("privmap.pipeline", "synth_population", "simulate.synth_population", None),
    ("privmap.pipeline", "synth_deaths", "simulate.synth_deaths", None),
    ("privmap.pipeline", "synth_poverty", "simulate.synth_poverty", None),
    ("privmap.simulate", "generate_dataset", "simulate.generate_dataset", None),
    ("privmap.simulate", "run_study", "simulate.run_study", None),
    ("privmap.pipeline", "stage_geo", "pipeline.stage_geo", None),
    ("privmap.pipeline", "stage_protect", "pipeline.stage_protect", None),
    ("privmap.pipeline", "stage_expect", "pipeline.stage_expect", None),
    ("privmap.pipeline", "stage_report", "pipeline.stage_report", None),
    ("privmap.pipeline", "sha256_file", "pipeline.sha256_file", _bytes),
    ("privmap.pipeline", "append_manifest", "pipeline.append_manifest", None),
]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, id_, name, parent):
        self.id, self.name, self.parent = id_, name, parent
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of every patched function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), name, self._stack[-1].id if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str):
        """Root span opened by the benchmark around a set-up or a pass."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                span.attrs.update(hook(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, hook in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = ["id", "name", "start", "end", "parent", "attrs"]
        doc["spans"] = [
            [s.id, s.name, s.start, s.end, s.parent, _jsonable(s.attrs)] for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _jsonable(attrs: dict) -> dict:
    return {k: v for k, v in attrs.items() if k != "beta"}


# ---------------------------------------------------------------------------
# effective sample size


def bulk_ess(chain: np.ndarray) -> float:
    """Rank-normalized split-chain bulk ESS of a single chain
    (Vehtari et al. 2021, arXiv:1903.08008): the chain is split in halves,
    pooled draws are replaced by normal scores of their ranks, and the
    autocorrelation sum is truncated by Geyer's initial monotone sequence."""
    half = chain.size // 2
    chains = np.asarray(chain[: 2 * half], dtype=float).reshape(2, half)
    ranks = scipy.stats.rankdata(chains, method="average").reshape(chains.shape)
    return _ess(scipy.special.ndtri((ranks - 0.375) / (chains.size + 0.25)))


def _ess(chains: np.ndarray) -> float:
    m, n = chains.shape
    centered = chains - chains.mean(axis=1, keepdims=True)
    spec = np.fft.rfft(centered, n=2 * n, axis=1)
    acov = np.fft.irfft(spec * np.conj(spec), n=2 * n, axis=1)[:, :n] / n
    within = float((acov[:, 0] * n / (n - 1)).mean())
    var_plus = within * (n - 1) / n + float(chains.mean(axis=1).var(ddof=1))
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    pairs = rho[: 2 * (n // 2) : 2] + rho[1 : 2 * (n // 2) : 2]
    stop = np.flatnonzero(pairs <= 0)
    pairs = np.minimum.accumulate(pairs[: stop[0] if stop.size else pairs.size])
    tau = max(-1.0 + 2.0 * float(pairs.sum()), 1.0 / np.log10(m * n))
    return m * n / tau


# ---------------------------------------------------------------------------
# per-layer metrics


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the time covered by direct children. Children of one
    span run one after another, so their union is their sum."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return {s.id: s.duration - child[s.id] for s in spans}


def _roots(spans: list[Span]) -> dict[int, int]:
    root = {}
    for s in spans:  # parents are opened before their children
        root[s.id] = s.id if s.parent is None else root[s.parent]
    return root


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[Span], *, leaves: int, fit_setup_s: float | None) -> dict[str, float]:
    """Reduce the spans to the named per-layer metrics.

    Each time or count is a layer's total within one benchmark phase (an
    input-generation set-up or a traced pass), and the metric is its median
    over the passes, or over the set-ups for a layer that only set-up
    calls; a layer a workload never calls reads 0.
    """
    self_s = _self_times(spans)
    root = _roots(spans)
    phases = {s.id for s in spans if s.parent is None and s.name in (SETUP, PASS)}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        if s.parent is not None and root[s.id] in phases:
            by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for name in names for s in by_name.get(name, [])]

    def per_phase(selected, value=lambda s: s.duration):
        totals: dict[int, float] = {}
        for s in selected:
            totals[root[s.id]] = totals.get(root[s.id], 0.0) + value(s)
        in_pass = [v for r, v in totals.items() if spans[r].name == PASS]
        return _median(in_pass or totals.values())

    def count(s):
        return 1

    def self_time(s):
        return self_s[s.id]

    fits = named("carmodel.fit")
    fit_s = [s.duration for s in fits]
    fit_med = _median(fit_s)
    summaries = [s.attrs["converged"] for s in named("carmodel.mrr_summary")]
    cold_priors = [
        s.duration for s in spans if s.name == "carmodel.sample_car_prior" and spans[root[s.id]].name == WARM
    ]
    topdown = named("das.run_topdown")

    out = {
        "geo.build_s": per_phase(named("geo.build_synthetic_geography")),
        "geo.read_s": per_phase(named("geo.read_hierarchy", "geo.read_adjacency")),
        "geo.write_s": per_phase(named("geo.write_hierarchy", "geo.write_adjacency")),
        "geo.adjacency_mb": leaves * leaves * 8 / 1e6,
        "tabulation.ingest_s": per_phase(named("tabulation.ingest")),
        "tabulation.ingest_rows": per_phase(named("tabulation.ingest"), lambda s: s.attrs["rows"]),
        "tabulation.write_s": per_phase(named("tabulation.write_tabulation", "tabulation.write_covariates")),
        "tabulation.leveled_cubes_s": per_phase(named("tabulation.leveled_cubes")),
    }
    for variant in ("v19", "v20", "v22"):
        out[f"das.run_topdown_s.{variant}"] = per_phase(s for s in topdown if s.attrs["variant"] == variant)
    out.update(
        {
            "das.inject_noise_s": per_phase(named("das.inject_noise")),
            "das.reconcile_self_s": per_phase(topdown, self_time),
            "das.project_children_calls": per_phase(named("das.project_children"), count),
            "das.controlled_round_calls": per_phase(named("das.controlled_round"), count),
            "das.write_audit_s": per_phase(named("das.write_audit")),
            "standardize.expected_counts_s": per_phase(named("standardize.expected_counts")),
            "standardize.read_expected_s": per_phase(named("standardize.read_expected")),
            "standardize.write_expected_s": per_phase(named("standardize.write_expected")),
            "carmodel.fit_s": fit_med,
            "carmodel.fit_s.max": max(fit_s, default=0.0),
            "carmodel.fit_count": len(fit_s),
            "carmodel.fit_setup_s": fit_setup_s or 0.0,
            "carmodel.sweep_us": (
                (fit_med - fit_setup_s) / fits[0].attrs["iterations"] * 1e6
                if fits and fit_setup_s is not None
                else 0.0
            ),
            "carmodel.sample_car_prior_s.cold": _median(cold_priors),
            "carmodel.sample_car_prior_s.warm": _median(s.duration for s in named("carmodel.sample_car_prior")),
            "carmodel.build_spec_s": per_phase(named("carmodel.build_spec")),
            "carmodel.mrr_summary_s": per_phase(named("carmodel.mrr_summary")),
            "carmodel.predict_counts_s": per_phase(named("carmodel.predict_counts")),
        }
    )
    for block in ("beta", "theta", "phi", "rho"):
        out[f"carmodel.accept.{block}"] = float(np.mean([s.attrs["accept"][block] for s in fits])) if fits else 0.0
    out["carmodel.ess_beta_min"] = _median(
        min(bulk_ess(s.attrs["beta"][:, j]) for j in range(s.attrs["beta"].shape[1])) for s in fits
    )
    out["carmodel.converged_frac"] = float(np.mean(summaries)) if summaries else 0.0
    out["simulate.generate_dataset_s"] = per_phase(named("simulate.generate_dataset"))
    out["simulate.run_study_self_s"] = per_phase(named("simulate.run_study"), self_time)
    for stage in ("geo", "protect", "expect", "report"):
        out[f"pipeline.stage_s.{stage}"] = per_phase(named(f"pipeline.stage_{stage}"))
    out["pipeline.sha256_s"] = per_phase(named("pipeline.sha256_file"))
    out["pipeline.sha256_bytes"] = per_phase(named("pipeline.sha256_file"), lambda s: s.attrs["bytes"])
    out["pipeline.append_manifest_s"] = per_phase(named("pipeline.append_manifest"))
    for module in MODULES:
        out[f"self_s.{module}"] = per_phase(
            named(*(name for name in by_name if name.split(".", 1)[0] == module)), self_time
        )
    out["trace.spans_per_pass"] = per_phase(named(*by_name), count)
    return out
