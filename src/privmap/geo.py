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


def _entry_rows(w: scipy.sparse.csr_matrix) -> np.ndarray:
    """Row of each stored entry of a CSR matrix, so with its ``indices`` the
    entries in row-major order."""
    return np.repeat(np.arange(w.shape[0]), np.diff(w.indptr))


class Adjacency:
    """Symmetric 0/1 neighbor weights over the hierarchy's leaves.

    The weights are stored as one canonical CSR matrix (float, sorted
    indices, no explicit zeros), whether they were given dense or sparse.
    """

    def __init__(self, leaf_ids: list[str], weights):
        # scipy is imported on use throughout this module: a module-level
        # scipy.sparse import made a fresh `import privmap` measurably slower
        import scipy.sparse

        if not scipy.sparse.issparse(weights):
            weights = np.asarray(weights)
        n = len(leaf_ids)
        if weights.shape != (n, n):
            raise GeographyError(f"weight matrix shape {weights.shape} does not match {n} leaves")
        self.leaf_ids = list(leaf_ids)
        self.weights = scipy.sparse.csr_matrix(weights, dtype=float, copy=True)
        self.weights.sum_duplicates()
        self.weights.eliminate_zeros()

    @property
    def n(self) -> int:
        return len(self.leaf_ids)

    @property
    def row_sums(self) -> np.ndarray:
        """Neighbor counts per leaf (the w_i+ degree vector)."""
        return np.asarray(self.weights.sum(axis=1)).ravel()

    def edges(self) -> list[tuple[str, str]]:
        """Undirected edges, each listed once with endpoint ids in index order."""
        w = self.weights
        i, k = _entry_rows(w), w.indices
        upper = (k > i) & (w.data > 0)
        return [(self.leaf_ids[a], self.leaf_ids[b]) for a, b in zip(i[upper].tolist(), k[upper].tolist())]

    def validate(self) -> list[str]:
        report = []
        w = self.weights
        asym = (w != w.T).tocsr()
        asym.sort_indices()
        for i, k in zip(_entry_rows(asym).tolist(), asym.indices.tolist()):
            if i < k:
                report.append(
                    f"asymmetric weight between {self.leaf_ids[i]} and {self.leaf_ids[k]}: "
                    f"{w[i, k]} vs {w[k, i]}"
                )
        diag = w.diagonal()
        if np.any(diag != 0):
            bad = [self.leaf_ids[i] for i in np.flatnonzero(diag)]
            report.append(f"nonzero diagonal weights for {bad}")
        islands = [self.leaf_ids[i] for i in np.flatnonzero(self.row_sums < 1)]
        for uid in islands:
            report.append(f"unit {uid} is an island (no neighbors)")
        return report

    def is_connected(self) -> bool:
        from scipy.sparse.csgraph import connected_components

        return self.n > 0 and connected_components(self.weights, directed=False, return_labels=False) == 1


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


def _edge_weights(n: int, i: np.ndarray, k: np.ndarray) -> scipy.sparse.csr_matrix:
    """0/1 weights with an edge between each i and k (pairs listed once)."""
    import scipy.sparse

    off = i != k
    rows, cols = np.concatenate([i, k[off]]), np.concatenate([k, i[off]])
    return scipy.sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))


def _grid_adjacency(n: int) -> tuple[np.ndarray, np.ndarray]:
    _, cols = _grid_shape(n)
    idx = np.arange(n)
    right = idx[idx % cols + 1 < cols]
    down = idx[: n - cols]
    return np.concatenate([right, down]), np.concatenate([right + 1, down + cols])


def _random_planar_adjacency(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Delaunay triangulation of jittered random points; always connected."""
    from scipy.spatial import Delaunay

    pts = rng.random((n, 2))
    s = Delaunay(pts).simplices
    pairs = np.concatenate([s[:, [0, 1]], s[:, [0, 2]], s[:, [1, 2]]])
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)  # each shared side once
    return pairs[:, 0], pairs[:, 1]


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
        i, k = _grid_adjacency(n_leaves)
    else:
        i, k = _random_planar_adjacency(n_leaves, rng)
    adj = Adjacency(h.leaf_ids, _edge_weights(n_leaves, i, k))
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


def _chain_ranks(parent_of: dict[str, str]) -> dict[str, int]:
    """Depth below the root (the unit with no parent) of every unit whose
    parent chain reaches it; units on a broken or looping chain are left out."""
    rank: dict[str, int | None] = {}
    for uid in parent_of:
        chain, u = [], uid
        while u in parent_of and u not in rank:
            rank[u] = None  # on the current walk, so reaching it again is a loop
            chain.append(u)
            u = parent_of[u]
        # u is now the root's empty parent id, a unit already walked, or a missing parent
        r = -1 if not u else rank.get(u)
        for c in reversed(chain):
            r = None if r is None else r + 1
            rank[c] = r
    return {u: r for u, r in rank.items() if r is not None}


def read_hierarchy(path) -> Hierarchy:
    """Load a hierarchy, ranking each unit by its parent chain, so rows may
    come in any order; a level name must name exactly one rank."""
    ids, level_names, parents = read_table(path, ["unit_id", "level", "parent_id"], GeographyError)
    roots = parents.count("")
    if roots != 1:
        raise GeographyError(f"{path}: hierarchy must have exactly one root, found {roots}")
    rank = _chain_ranks(dict(zip(ids, parents)))
    level_rank: dict[str, int] = {}
    for uid, level_name in zip(ids, level_names):
        if uid in rank and level_rank.setdefault(level_name, rank[uid]) != rank[uid]:
            raise GeographyError(
                f"{path}: level {level_name!r} used at ranks {level_rank[level_name]} and {rank[uid]} (unit {uid})"
            )
    level_at: dict[int, str] = {}
    for level_name, r in level_rank.items():
        if level_at.setdefault(r, level_name) != level_name:
            raise GeographyError(f"{path}: rank {r} has two level names, {level_at[r]!r} and {level_name!r}")
    units = []
    for uid, level_name, parent in zip(ids, level_names, parents):
        # a unit cut off from the root keeps its level's rank, so that
        # validate() names the broken link
        r = rank.get(uid, level_rank.get(level_name))
        if r is None:
            raise GeographyError(f"{path}: unit {uid}: parent chain does not reach the root")
        units.append(GeoUnit(uid, r, parent or None))
    levels = [GeoLevel(r, name) for name, r in level_rank.items()]
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
    edges = np.array(read_table(path, ["unit_a", "unit_b"], GeographyError), dtype=str).T
    by_id = np.argsort(ids)
    pos = by_id[np.searchsorted(ids, edges, sorter=by_id).clip(max=ids.size - 1)]
    known = (ids[pos] == edges).all(axis=1)
    # one key per unordered pair, so a reversed repeat is a duplicate too;
    # rows naming an unknown leaf get keys of their own
    key = np.where(known, pos.min(axis=1) * ids.size + pos.max(axis=1), -1 - np.arange(len(edges)))
    repeat = np.ones(len(edges), dtype=bool)
    repeat[np.unique(key, return_index=True)[1]] = False
    bad = np.flatnonzero(~known | repeat)
    if bad.size:
        ua, ub = edges[bad[0]]
        if not known[bad[0]]:
            raise GeographyError(f"{path}: edge ({ua}, {ub}) references unknown leaf")
        raise GeographyError(f"{path}: duplicate edge ({ua}, {ub})")
    return Adjacency(leaf_ids, _edge_weights(ids.size, pos[:, 0], pos[:, 1]))
