"""Stratified population count cubes over a geographic hierarchy.

A cube holds one non-negative integer count per (unit, age band, group)
cell for the units of a single level: ground truth, synthetic events and
published mechanism output alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TabulationError
from .geo import Hierarchy
from .tables import check_cells, read_keyed, write_cells

DEFAULT_AGE_BANDS = ["0-4", "5-14", "15-24", "25-34", "35-44", "45-54", "55-64"]
DEFAULT_GROUPS = ["NHW", "Black"]


@dataclass(frozen=True)
class AgeSchema:
    bands: tuple[str, ...]

    def __post_init__(self):
        if len(self.bands) < 1:
            raise TabulationError("age schema needs at least one band")
        if len(set(self.bands)) != len(self.bands):
            raise TabulationError("age band labels must be unique")

    @property
    def n(self) -> int:
        return len(self.bands)


@dataclass(frozen=True)
class GroupSchema:
    groups: tuple[str, ...]

    def __post_init__(self):
        if len(self.groups) < 1:
            raise TabulationError("group schema needs at least one group")
        if len(set(self.groups)) != len(self.groups):
            raise TabulationError("group labels must be unique")

    @property
    def n(self) -> int:
        return len(self.groups)


def default_age_schema() -> AgeSchema:
    return AgeSchema(tuple(DEFAULT_AGE_BANDS))


def default_group_schema() -> GroupSchema:
    return GroupSchema(tuple(DEFAULT_GROUPS))


class TabulationCube:
    """Counts for every unit of one hierarchy level, dense over (band, group)."""

    def __init__(
        self,
        hierarchy: Hierarchy,
        rank: int,
        ages: AgeSchema,
        groups: GroupSchema,
        values: np.ndarray,
    ):
        self.hierarchy = hierarchy
        self.rank = rank
        self.ages = ages
        self.groups = groups
        self.unit_ids = hierarchy.units_at(rank)
        values = np.asarray(values, dtype=float)
        expect = (len(self.unit_ids), ages.n, groups.n)
        if values.shape != expect:
            raise TabulationError(f"cube shape {values.shape} does not match {expect}")
        if np.any(values < 0):
            raise TabulationError("integer cube contains negative cells")
        if np.any(values != np.round(values)):
            raise TabulationError("integer cube contains non-integral cells")
        self.values = np.round(values)  # a copy: the cube freezes its values, not the caller's array
        self.values.flags.writeable = False

    @property
    def total(self) -> float:
        return float(self.values.sum())

    def with_values(self, values: np.ndarray) -> "TabulationCube":
        return TabulationCube(self.hierarchy, self.rank, self.ages, self.groups, values)


def ingest(path, ages: AgeSchema, groups: GroupSchema, h: Hierarchy, *, value_column: str = "count") -> TabulationCube:
    """Read a complete leaf cube; a missing or duplicate cell, or a negative
    or non-integral count, fails naming its cell."""
    axes = [h.leaf_ids, ages.bands, groups.groups]
    values = read_keyed(path, ["unit_id", "age_band", "group", value_column], axes, TabulationError)
    check_cells(path, values, axes, values < 0, "negative count", TabulationError)
    check_cells(path, values, axes, values != np.round(values), "non-integral count", TabulationError)
    return TabulationCube(h, h.depth - 1, ages, groups, values)


def write_tabulation(cube: TabulationCube, path, *, value_column: str = "count") -> None:
    """Canonical ordering (unit, band, group); counts rendered without a point."""
    axes = [cube.unit_ids, cube.ages.bands, cube.groups.groups]
    write_cells(path, ["unit_id", "age_band", "group", value_column], [(axes, cube.values.astype(np.int64))])


def aggregate(cube: TabulationCube, target_rank: int) -> TabulationCube:
    """Sum each stratum bottom-up until the cube sits at ``target_rank``."""
    if target_rank >= cube.rank:
        if target_rank == cube.rank:
            return cube
        raise TabulationError(f"target rank {target_rank} is below cube rank {cube.rank}")
    if target_rank < 0 or target_rank >= cube.hierarchy.depth:
        raise TabulationError(f"rank {target_rank} not in hierarchy")
    h = cube.hierarchy
    current = cube
    while current.rank > target_rank:
        out = np.zeros((len(h.units_at(current.rank - 1)), cube.ages.n, cube.groups.n))
        np.add.at(out, h.parent_index(current.rank), current.values)
        current = TabulationCube(h, current.rank - 1, cube.ages, cube.groups, out)
    return current


def leveled_cubes(cube: TabulationCube) -> dict[int, TabulationCube]:
    """One cube per rank from the root down to the input cube's rank."""
    out = {cube.rank: cube}
    for rank in range(cube.rank - 1, -1, -1):
        out[rank] = aggregate(out[rank + 1], rank)
    return out


def unit_totals(cube: TabulationCube) -> np.ndarray:
    """Total population per unit (both axes summed)."""
    return cube.values.sum(axis=(1, 2))


# ---------------------------------------------------------------------------
# covariate file


def write_covariates(path, unit_ids: list[str], name: str, values: np.ndarray) -> None:
    write_cells(path, ["unit_id", "name", "value"], [([unit_ids, [name]], np.asarray(values, dtype=float))])


def read_covariates(path, unit_ids: list[str], name: str) -> np.ndarray:
    """The value of covariate ``name`` per unit, from a table of that one
    covariate as :func:`write_covariates` writes it."""
    return read_keyed(path, ["unit_id", "name", "value"], [unit_ids, [name]], TabulationError)[:, 0]
