"""Indirect age-standardization: reference rates and expected event counts.

Expected counts are the model denominators/offsets: for unit i and group j,
the expected value is the sum over age bands of population times the
statewide band-specific reference rate. Rates are always taken from the
unprotected statewide totals so that downstream comparisons isolate
denominator error introduced by the protection mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StandardizationError
from .tables import check_cells, fmt, read_keyed, write_cells
from .tabulation import AgeSchema, GroupSchema, TabulationCube, aggregate


@dataclass(frozen=True)
class ReferenceRates:
    """Events per person per age band; optionally one schedule per group."""

    bands: tuple[str, ...]
    rates: np.ndarray  # (A,) pooled or (A, G) group-specific
    groups: tuple[str, ...] | None = None

    @property
    def group_specific(self) -> bool:
        return self.groups is not None


def reference_rates(
    deaths: np.ndarray,
    population: np.ndarray,
    ages: AgeSchema,
    groups: GroupSchema | None = None,
) -> ReferenceRates:
    """Rates = statewide deaths over statewide population, per band.

    Bands with zero population and zero deaths get a zero rate; deaths in an
    empty band are rejected. Pass ``groups`` for group-specific schedules
    (deaths/population then have shape (A, G)).
    """
    deaths = np.asarray(deaths, dtype=float)
    population = np.asarray(population, dtype=float)
    want = (ages.n,) if groups is None else (ages.n, groups.n)
    if deaths.shape != want or population.shape != want:
        raise StandardizationError(
            f"deaths/population shapes {deaths.shape}/{population.shape} do not match {want}"
        )
    bad = (population == 0) & (deaths > 0)
    if np.any(bad):
        idx = np.argwhere(bad)[0]
        raise StandardizationError(
            f"band {ages.bands[idx[0]]!r} has {deaths[tuple(idx)]} deaths but zero population"
        )
    rates = np.divide(deaths, population, out=np.zeros_like(deaths), where=population > 0)
    return ReferenceRates(ages.bands, rates, None if groups is None else groups.groups)


def rates_from_cubes(
    deaths_cube: TabulationCube,
    population_cube: TabulationCube,
    group_specific: bool = True,
) -> ReferenceRates:
    """Convenience: aggregate both cubes to the root and form rates."""
    d_root = aggregate(deaths_cube, 0).values[0]
    p_root = aggregate(population_cube, 0).values[0]
    ages = deaths_cube.ages
    if group_specific:
        return reference_rates(d_root, p_root, ages, deaths_cube.groups)
    return reference_rates(d_root.sum(axis=1), p_root.sum(axis=1), ages)


@dataclass
class ExpectedCounts:
    """Expected events per (unit, group) plus a tag naming the denominator source."""

    unit_ids: list[str]
    groups: tuple[str, ...]
    values: np.ndarray  # (n_units, n_groups), non-negative reals
    source: str = "custom"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.unit_ids), len(self.groups)):
            raise StandardizationError(
                f"expected-count shape {self.values.shape} does not match "
                f"{len(self.unit_ids)} units x {len(self.groups)} groups"
            )
        if np.any(self.values < 0):
            raise StandardizationError("expected counts must be non-negative")

    def aligned_with(self, other: "ExpectedCounts") -> bool:
        return self.unit_ids == other.unit_ids and self.groups == other.groups


def expected_counts(cube: TabulationCube, rates: ReferenceRates, source: str = "custom") -> ExpectedCounts:
    """Apply the reference schedule to a leaf-level cube."""
    if cube.rank != cube.hierarchy.depth - 1:
        raise StandardizationError("expected counts are defined at the leaf level")
    if rates.bands != cube.ages.bands:
        raise StandardizationError(
            f"rate bands {rates.bands} do not match cube bands {cube.ages.bands}"
        )
    if rates.group_specific:
        if rates.groups != cube.groups.groups:
            raise StandardizationError("rate groups do not match cube groups")
        values = np.einsum("iag,ag->ig", cube.values, rates.rates)
    else:
        values = np.einsum("iag,a->ig", cube.values, rates.rates)
    return ExpectedCounts(list(cube.unit_ids), cube.groups.groups, values, source)


# ---------------------------------------------------------------------------
# error metrics on expected counts


@dataclass
class PercentErrorResult:
    errors: np.ndarray  # (n_units, n_groups), NaN where the truth is zero
    summary: dict[str, dict[str, float]]  # per group; empty for a group without a nonzero truth


def _summary_stats(err: np.ndarray) -> dict[str, float]:
    err = err[~np.isnan(err)]
    if err.size == 0:
        return {}
    q25, q50, q75 = np.percentile(err, [25, 50, 75])
    return {
        "mean": float(err.mean()),
        "sd": float(err.std(ddof=1)) if err.size > 1 else 0.0,
        "q25": float(q25),
        "median": float(q50),
        "q75": float(q75),
    }


def percent_error(test: ExpectedCounts, truth: ExpectedCounts) -> PercentErrorResult:
    """Cell-level 100*(test-truth)/truth with zero-truth cells diverted."""
    if not test.aligned_with(truth):
        raise StandardizationError("expected-count sources are not aligned")
    errors = np.full_like(truth.values, np.nan)
    ok = truth.values != 0
    errors[ok] = 100.0 * (test.values[ok] - truth.values[ok]) / truth.values[ok]
    summary = {group: _summary_stats(errors[:, g]) for g, group in enumerate(truth.groups)}
    return PercentErrorResult(errors, summary)


def group_percent(hit: np.ndarray, base: np.ndarray | bool, groups: tuple[str, ...]) -> dict[str, float]:
    """For each group (a column of the (cells, groups) mask ``hit``), the
    percent of its ``base`` cells where ``hit`` holds, or NaN when the group
    has no base cell; ``base`` broadcasts against ``hit``."""
    hit = np.asarray(hit, dtype=bool)
    base = np.broadcast_to(base, hit.shape)
    k, n = (hit & base).sum(axis=0).tolist(), base.sum(axis=0).tolist()
    return {group: 100.0 * (k[g] / n[g]) if n[g] else float("nan") for g, group in enumerate(groups)}


def underestimation_fraction(test: ExpectedCounts, truth: ExpectedCounts) -> dict[str, float]:
    """Percent of cells with test strictly below truth, per group, over cells
    with positive truth."""
    if not test.aligned_with(truth):
        raise StandardizationError("expected-count sources are not aligned")
    return group_percent(test.values < truth.values, truth.values > 0, truth.groups)


def zero_count_percent(source: ExpectedCounts) -> dict[str, float]:
    """Percent of zero expected counts per group (a published-data pathology)."""
    return group_percent(source.values == 0, True, source.groups)


# ---------------------------------------------------------------------------
# statewide totals: the reference rates' only input


TOTALS_HEADER = ["age_band", "group", "measure", "count"]
MEASURES = ("population", "deaths")


def write_totals(population: TabulationCube, deaths: TabulationCube, path) -> None:
    """Statewide population and deaths per (age band, group)."""
    values = np.stack([population.values.sum(axis=0), deaths.values.sum(axis=0)], axis=-1)
    axes = [population.ages.bands, population.groups.groups, MEASURES]
    write_cells(path, TOTALS_HEADER, [(axes, values.astype(np.int64))])


def read_totals(path, h, ages: AgeSchema, groups: GroupSchema) -> tuple[TabulationCube, TabulationCube]:
    """The statewide population and deaths as root-rank cubes, which
    :func:`rates_from_cubes` takes as they are; a count that is not a
    non-negative integer fails naming its cell."""
    axes = [ages.bands, groups.groups, MEASURES]
    values = read_keyed(path, TOTALS_HEADER, axes, StandardizationError)
    check_cells(path, values, axes, values < 0, "negative count", StandardizationError)
    check_cells(path, values, axes, values != np.round(values), "non-integral count", StandardizationError)
    return tuple(TabulationCube(h, 0, ages, groups, values[None, ..., m]) for m in range(len(MEASURES)))


def check_totals(cube: TabulationCube, cube_path, population: TabulationCube, totals_path, per_stratum: bool) -> None:
    """The cube's statewide counts against the statewide population read
    from ``totals_path``: every (band, group) sum when ``per_stratum``, else
    the grand total only, which the mechanism keeps exactly. A mismatch
    names both files."""
    if per_stratum:
        got, want = cube.values.sum(axis=0), population.values[0]
        bad = np.argwhere(got != want)
        if len(bad):
            a, g = bad[0]
            raise StandardizationError(
                f"{cube_path}: population {fmt(got[a, g])} in ({cube.ages.bands[a]}, {cube.groups.groups[g]}) "
                f"does not match {fmt(want[a, g])} in {totals_path}"
            )
    elif cube.total != population.total:
        raise StandardizationError(
            f"{cube_path}: total {fmt(cube.total)} does not match the population total "
            f"{fmt(population.total)} in {totals_path}"
        )


# ---------------------------------------------------------------------------
# file round-trip (10 significant digits)


def write_expected(ec: ExpectedCounts, path) -> None:
    write_cells(path, ["unit_id", "group", "expected"], [([ec.unit_ids, ec.groups], ec.values)])


def read_expected(path, unit_ids: list[str], groups: tuple[str, ...], source: str = "custom") -> ExpectedCounts:
    values = read_keyed(path, ["unit_id", "group", "expected"], [unit_ids, groups], StandardizationError)
    check_cells(path, values, [unit_ids, groups], values < 0, "negative expected count", StandardizationError)
    return ExpectedCounts(list(unit_ids), tuple(groups), values, source)
