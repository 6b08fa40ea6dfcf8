"""Nested geographic hierarchies and leaf-level spatial adjacency.

The same synthetic geography feeds two consumers: the top-down protection
mechanism walks the hierarchy as a tree, and the spatial model uses the
leaf adjacency as an undirected graph with binary weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeographyError
from .tables import read_table, write_table


@dataclass(frozen=True)
class GeoLevel:
    """One stratum of the nesting, rank 0 being the root."""

    rank: int
    name: str

    def __post_init__(self):
        if self.rank < 0:
            raise GeographyError(f"level rank must be >= 0, got {self.rank}")


@dataclass(frozen=True)
class GeoUnit:
    id: str
    rank: int
    parent_id: str | None


LAYOUTS = ("grid", "random-planar")
DEFAULT_LEVEL_NAMES = ["root", "region", "county", "tract", "blockgroup", "block"]


def _level_names(depth: int) -> list[str]:
    if depth <= len(DEFAULT_LEVEL_NAMES):
        # keep "root" first and the finest default name last
        return [DEFAULT_LEVEL_NAMES[0]] + DEFAULT_LEVEL_NAMES[len(DEFAULT_LEVEL_NAMES) - depth + 1 :]
    return ["root"] + [f"level{r}" for r in range(1, depth)]


class Hierarchy:
    """A rooted tree of geographic units with contiguous level ranks.

    Per-rank index arrays are built once here: the unit ids at each rank in
    insertion order, each unit's position among them, and for each rank the
    position of every unit's parent among the units one rank up. A unit whose
    parent is missing or not one rank up gets parent position -1; such a
    tree still constructs, so that :meth:`validate` can report on it.
    """

    def __init__(self, units: list[GeoUnit], levels: list[GeoLevel]):
        self.levels = sorted(levels, key=lambda lv: lv.rank)
        ranks = [lv.rank for lv in self.levels]
        if ranks != list(range(len(ranks))):
            raise GeographyError(f"level ranks must be contiguous from 0, got {ranks}")
        if not (2 <= len(ranks) <= 6):
            raise GeographyError(f"hierarchy depth must be between 2 and 6, got {len(ranks)}")
        self.units = list(units)
        self._by_id = {u.id: u for u in self.units}
        if len(self._by_id) != len(self.units):
            raise GeographyError("unit ids are not unique")
        self._ids: list[list[str]] = [[] for _ in self.levels]
        self._position: dict[str, int] = {}
        for u in self.units:
            if not 0 <= u.rank < self.depth:
                raise GeographyError(f"unit {u.id}: rank {u.rank} outside levels 0..{self.depth - 1}")
            self._position[u.id] = len(self._ids[u.rank])
            self._ids[u.rank].append(u.id)
        roots = [u.id for u in self.units if u.parent_id is None]
        if len(roots) != 1:
            raise GeographyError(f"hierarchy must have exactly one root, found {len(roots)}")
        self.root_id = roots[0]
        self._parent_index = [
            np.array([self._parent_position(self._by_id[uid]) for uid in ids], dtype=np.intp)
            for ids in self._ids
        ]

    def _parent_position(self, u: GeoUnit) -> int:
        parent = self._by_id.get(u.parent_id)
        return self._position[parent.id] if parent is not None and parent.rank == u.rank - 1 else -1

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def leaf_level(self) -> GeoLevel:
        return self.levels[-1]

    def level_by_name(self, name: str) -> GeoLevel:
        for lv in self.levels:
            if lv.name == name:
                return lv
        raise GeographyError(f"unknown level name {name!r}")

    def unit(self, unit_id: str) -> GeoUnit:
        try:
            return self._by_id[unit_id]
        except KeyError:
            raise GeographyError(f"unknown unit id {unit_id!r}") from None

    def units_at(self, rank: int) -> list[str]:
        """Unit ids at a rank, in stable (insertion) order; shared, do not mutate."""
        return self._ids[rank]

    def index(self, unit_id: str, rank: int) -> int:
        """Position of a unit among :meth:`units_at` ``rank``."""
        if self.unit(unit_id).rank != rank:
            raise GeographyError(f"unit {unit_id!r} is not at rank {rank}")
        return self._position[unit_id]

    def parent_index(self, rank: int) -> np.ndarray:
        """Position of each unit's parent among the units one rank up."""
        index = self._parent_index[rank]
        if rank == 0 or np.any(index < 0):
            raise GeographyError(f"units at rank {rank} lack a parent one rank up; see validate()")
        return index

    def children(self, unit_id: str) -> list[str]:
        rank = self.unit(unit_id).rank
        if rank == self.depth - 1:
            return []
        below = np.flatnonzero(self._parent_index[rank + 1] == self._position[unit_id])
        return [self._ids[rank + 1][k] for k in below]

    @property
    def leaf_ids(self) -> list[str]:
        return self.units_at(self.depth - 1)

    def validate(self) -> list[str]:
        """Tree-structure violations; empty list when well formed."""
        report = []
        for u in self.units:
            if u.parent_id is None:
                if u.rank != 0:
                    report.append(f"unit {u.id}: no parent but rank {u.rank} != 0")
                continue
            parent = self._by_id.get(u.parent_id)
            if parent is None:
                report.append(f"unit {u.id}: missing parent {u.parent_id}")
            elif parent.rank != u.rank - 1:
                report.append(
                    f"unit {u.id}: parent {u.parent_id} has rank {parent.rank}, expected {u.rank - 1}"
                )
        # with every parent one rank up there is no cycle and every unit
        # reaches the root, so these and childless internal units are all
        # the ways a tree can be malformed
        for rank in range(self.depth - 1):
            parent = self._parent_index[rank + 1]
            n_children = np.bincount(parent[parent >= 0], minlength=len(self._ids[rank]))
            report.extend(
                f"unit {self._ids[rank][k]}: no children at {self.levels[rank].name} level"
                for k in np.flatnonzero(n_children == 0)
            )
        return report


class Adjacency:
    """Symmetric 0/1 neighbor weights over the hierarchy's leaves."""

    def __init__(self, leaf_ids: list[str], weights: np.ndarray):
        weights = np.asarray(weights)
        n = len(leaf_ids)
        if weights.shape != (n, n):
            raise GeographyError(f"weight matrix shape {weights.shape} does not match {n} leaves")
        self.leaf_ids = list(leaf_ids)
        self.weights = weights.astype(float)

    @property
    def n(self) -> int:
        return len(self.leaf_ids)

    @property
    def row_sums(self) -> np.ndarray:
        """Neighbor counts per leaf (the w_i+ degree vector)."""
        return self.weights.sum(axis=1)

    def edges(self) -> list[tuple[str, str]]:
        """Undirected edges, each listed once with endpoint ids in index order."""
        out = []
        idx = np.argwhere(np.triu(self.weights, k=1) > 0)
        for i, k in idx:
            out.append((self.leaf_ids[i], self.leaf_ids[k]))
        return out

    def validate(self) -> list[str]:
        report = []
        w = self.weights
        asym = np.argwhere(w != w.T)
        for i, k in asym[: len(asym) // 2 + 1]:
            if i < k:
                report.append(
                    f"asymmetric weight between {self.leaf_ids[i]} and {self.leaf_ids[k]}: "
                    f"{w[i, k]} vs {w[k, i]}"
                )
        if np.any(np.diag(w) != 0):
            bad = [self.leaf_ids[i] for i in np.flatnonzero(np.diag(w))]
            report.append(f"nonzero diagonal weights for {bad}")
        islands = [self.leaf_ids[i] for i in np.flatnonzero(w.sum(axis=1) < 1)]
        for uid in islands:
            report.append(f"unit {uid} is an island (no neighbors)")
        return report

    def is_connected(self) -> bool:
        n = self.n
        if n == 0:
            return False
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            i = stack.pop()
            for k in np.flatnonzero(self.weights[i] > 0):
                if not seen[k]:
                    seen[k] = True
                    stack.append(int(k))
        return bool(seen.all())


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(h: Hierarchy, a: Adjacency) -> ValidationReport:
    """Collect tree, symmetry, and island violations; empty report means valid."""
    report = list(h.validate())
    report.extend(a.validate())
    leaf_set = set(h.leaf_ids)
    adj_set = set(a.leaf_ids)
    if leaf_set != adj_set:
        report.append(
            f"adjacency leaves differ from hierarchy leaves "
            f"(missing {sorted(leaf_set - adj_set)}, extra {sorted(adj_set - leaf_set)})"
        )
    return ValidationReport(report)


def _grid_shape(n: int) -> tuple[int, int]:
    """Largest r <= sqrt(n) dividing n, so the rook grid is a full rectangle."""
    r = int(np.floor(np.sqrt(n)))
    while r > 1 and n % r != 0:
        r -= 1
    return r, n // r


def _grid_adjacency(n: int) -> np.ndarray:
    rows, cols = _grid_shape(n)
    w = np.zeros((n, n))
    for i in range(n):
        r, c = divmod(i, cols)
        if c + 1 < cols:
            w[i, i + 1] = w[i + 1, i] = 1.0
        if r + 1 < rows:
            w[i, i + cols] = w[i + cols, i] = 1.0
    return w


def _random_planar_adjacency(n: int, rng: np.random.Generator) -> np.ndarray:
    """Delaunay triangulation of jittered random points; always connected."""
    from scipy.spatial import Delaunay

    pts = rng.random((n, 2))
    tri = Delaunay(pts)
    w = np.zeros((n, n))
    for simplex in tri.simplices:
        for a in range(3):
            for b in range(a + 1, 3):
                i, k = simplex[a], simplex[b]
                w[i, k] = w[k, i] = 1.0
    return w


def build_synthetic_geography(
    n_leaves: int,
    branching: list[int],
    layout: str = "grid",
    seed: int = 0,
) -> tuple[Hierarchy, Adjacency]:
    """Build a nested tree over ``n_leaves`` analysis units plus a leaf adjacency.

    ``branching`` gives the fan-out at each internal level below the root;
    its product must cover ``n_leaves`` (the last parent may be ragged).
    ``layout`` controls the leaf graph: ``grid`` is a rook-adjacency
    rectangle, ``random-planar`` a seeded Delaunay triangulation.
    """
    if n_leaves < 4:
        raise GeographyError(f"need at least 4 leaves, got {n_leaves}")
    branching = list(branching)
    if not branching or any(b < 1 for b in branching):
        raise GeographyError(f"branching factors must be positive integers, got {branching}")
    cap = int(np.prod(branching))
    if cap < n_leaves:
        raise GeographyError(
            f"branching {branching} supports at most {cap} leaves, requested {n_leaves}"
        )
    if layout not in LAYOUTS:
        raise GeographyError(f"unknown layout {layout!r}")

    depth = len(branching) + 1
    names = _level_names(depth)
    levels = [GeoLevel(r, names[r]) for r in range(depth)]

    # counts per level: how many units actually exist once leaves are capped
    counts = [n_leaves]
    for b in reversed(branching[1:]):
        counts.append(int(np.ceil(counts[-1] / b)))
    counts.append(1)
    counts = counts[::-1]  # counts[rank]

    units: list[GeoUnit] = [GeoUnit("U0-0", 0, None)]
    for rank in range(1, depth):
        fan = branching[rank - 1]
        for i in range(counts[rank]):
            parent = f"U{rank - 1}-{i // fan}"
            units.append(GeoUnit(f"U{rank}-{i}", rank, parent))

    h = Hierarchy(units, levels)

    rng = np.random.default_rng(np.random.SeedSequence([seed, n_leaves]))
    if layout == "grid":
        w = _grid_adjacency(n_leaves)
    else:
        w = _random_planar_adjacency(n_leaves, rng)
    adj = Adjacency(h.leaf_ids, w)
    if not adj.is_connected():
        raise GeographyError(f"{layout} layout produced a disconnected leaf graph")
    if np.any(adj.row_sums < 1):
        raise GeographyError(f"{layout} layout produced island leaves")
    return h, adj


# ---------------------------------------------------------------------------
# file round-trips


def write_hierarchy(h: Hierarchy, path) -> None:
    rows = ([u.id, h.levels[u.rank].name, u.parent_id or ""] for u in h.units)
    write_table(path, ["unit_id", "level", "parent_id"], rows)


def read_hierarchy(path) -> Hierarchy:
    units = []
    level_names: dict[str, int] = {}
    for uid, level_name, parent in read_table(path, ["unit_id", "level", "parent_id"], GeographyError):
        rank = level_names.setdefault(level_name, len(level_names))
        units.append(GeoUnit(uid, rank, parent or None))
    levels = [GeoLevel(rank, name) for name, rank in level_names.items()]
    try:
        h = Hierarchy(units, levels)
    except GeographyError as exc:
        raise GeographyError(f"{path}: {exc}") from None
    report = h.validate()
    if report:
        raise GeographyError(f"{path}: {report[0]}" + (f" and {len(report) - 1} more" if len(report) > 1 else ""))
    return h


def write_adjacency(a: Adjacency, path) -> None:
    write_table(path, ["unit_a", "unit_b"], a.edges())


def read_adjacency(path, leaf_ids: list[str]) -> Adjacency:
    ids = np.asarray(leaf_ids)
    edges = np.array(read_table(path, ["unit_a", "unit_b"], GeographyError), dtype=str).reshape(-1, 2)
    by_id = np.argsort(ids)
    pos = by_id[np.searchsorted(ids, edges, sorter=by_id).clip(max=ids.size - 1)]
    known = (ids[pos] == edges).all(axis=1)
    w = np.zeros((ids.size, ids.size))
    for (ua, ub), (i, k), ok in zip(edges.tolist(), pos.tolist(), known.tolist()):
        if not ok:
            raise GeographyError(f"{path}: edge ({ua}, {ub}) references unknown leaf")
        if w[i, k]:
            raise GeographyError(f"{path}: duplicate edge ({ua}, {ub})")
        w[i, k] = w[k, i] = 1.0
    return Adjacency(leaf_ids, w)
