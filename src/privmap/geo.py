"""Nested geographic hierarchies and leaf-level spatial adjacency.

The same synthetic geography feeds two consumers: the top-down protection
mechanism walks the hierarchy as a tree, and the spatial model uses the
leaf adjacency as an undirected graph with binary weights.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import GeographyError
from .tables import read_table, sidecar_payload, write_sidecar, write_table


MAX_DEPTH = 6
LAYOUTS = ("grid", "random-planar")
DEFAULT_LEVEL_NAMES = ["root", "region", "county", "tract", "blockgroup", "block"]
HIERARCHY_HEADER = ["unit_id", "level", "parent_id"]
_ROOT, _MISSING = -1, -2  # the parent position of the root, and of a unit whose parent is unknown


class Hierarchy:
    """A rooted tree of geographic units, built from ``(unit_id, level,
    parent_id)`` records in any order, the root's parent id being empty.

    A unit's rank is the length of its parent chain. The first fault raises
    GeographyError naming it: a repeated unit id, other than one root, a
    missing parent, a chain that loops or passes six levels, a level name at
    two ranks or a rank with two names, fewer than two levels, or an
    internal unit without children. Kept are the unit ids at each rank in
    record order, for each rank below the root the position of every unit's
    parent among the units one rank up, and the level names.
    """

    def __init__(self, records):
        records = list(records)
        n = len(records)
        position = {uid: i for i, (uid, _, _) in enumerate(records)}
        if len(position) != n:
            seen: set[str] = set()
            repeat = next(uid for uid, _, _ in records if uid in seen or seen.add(uid))
            raise GeographyError(f"unit id {repeat} is not unique")
        # each record's parent position, _ROOT for an empty parent id and _MISSING for an unknown one
        parent = np.fromiter(
            (position.get(p, _MISSING) if p else _ROOT for _, _, p in records), dtype=np.intp, count=n
        )
        roots = int(np.count_nonzero(parent == _ROOT))
        if roots != 1:
            raise GeographyError(f"hierarchy must have exactly one root, found {roots}")
        # rank by stepping every chain up at once: after k steps, `at` is each
        # unit's k-th ancestor; a chain ends at the root, at a missing parent
        # (the unit `at` names it) or, still going after MAX_DEPTH steps, loops
        rank = np.full(n, -1)
        fault_at = np.full(n, -1)  # the ancestor whose parent is missing
        at = np.arange(n)
        for k in range(MAX_DEPTH):
            up = parent[at]
            pending = (rank < 0) & (fault_at < 0)
            rank[pending & (up == _ROOT)] = k
            missing = pending & (up == _MISSING)
            fault_at[missing] = at[missing]
            at = np.where(up >= 0, up, at)
        # the first record at fault, and before it the first record whose
        # level name is used at another rank by an earlier record
        faulty = np.flatnonzero(rank < 0)
        first = faulty[0] if faulty.size else n
        levels: dict[str, int] = {}
        code = np.fromiter((levels.setdefault(level, len(levels)) for _, level, _ in records), dtype=np.intp, count=n)
        level_rank = rank[np.unique(code, return_index=True)[1]]
        clash = np.flatnonzero(rank[:first] != level_rank[code[:first]])
        if clash.size:
            i = clash[0]
            uid, level, _ = records[i]
            raise GeographyError(f"level {level!r} used at ranks {level_rank[code[i]]} and {rank[i]} (unit {uid})")
        if first < n:
            if fault_at[first] < 0:
                raise GeographyError(
                    f"unit {records[first][0]}: parent chain loops or is deeper than {MAX_DEPTH} levels"
                )
            u, _, p = records[fault_at[first]]
            raise GeographyError(f"unit {u}: missing parent {p}")
        # every rank up to the deepest is on some unit's chain
        depth = int(rank.max()) + 1
        first_at_rank = np.unique(rank, return_index=True)[1]
        clash = np.flatnonzero(code != code[first_at_rank[rank]])
        if clash.size:
            i = clash[0]
            uid, level, _ = records[i]
            name = records[first_at_rank[rank[i]]][1]
            raise GeographyError(f"rank {rank[i]} has two level names, {name!r} and {level!r} (unit {uid})")
        if depth < 2:
            raise GeographyError(f"hierarchy depth must be between 2 and {MAX_DEPTH}, got {depth}")
        self.level_names = [records[i][1] for i in first_at_rank]
        members = [np.flatnonzero(rank == r) for r in range(depth)]
        in_rank = np.empty(n, dtype=np.intp)  # each unit's position among the units of its rank
        for m in members:
            in_rank[m] = np.arange(m.size)
        self._ids = [[records[i][0] for i in m.tolist()] for m in members]
        self._parents = [in_rank[parent[m]] for m in members[1:]]
        for r, parents in enumerate(self._parents):
            childless = np.flatnonzero(np.bincount(parents, minlength=len(self._ids[r])) == 0)
            if childless.size:
                raise GeographyError(f"unit {self._ids[r][childless[0]]}: no children at {self.level_names[r]} level")

    @classmethod
    def _from_ranks(cls, level_names, ids, parents) -> Hierarchy | None:
        """The hierarchy kept as ``level_names``, the unit ids at each rank
        and the parent positions at each rank below the root, as
        ``write_hierarchy`` writes them to the sidecar; None unless they have
        a hierarchy's shape: 2 to MAX_DEPTH levels, one root, one parent
        position per unit below the root, each naming a unit one rank up,
        and no childless unit above the leaves."""
        depth = len(level_names)
        if not (2 <= depth <= MAX_DEPTH and len(ids) == depth and len(parents) == depth - 1 and len(ids[0]) == 1):
            return None
        parents = [np.asarray(p, dtype=np.intp) for p in parents]
        for r, p in enumerate(parents):
            if p.shape != (len(ids[r + 1]),):
                return None
            children = np.bincount(p, minlength=len(ids[r]))
            if children.size != len(ids[r]) or not children.all():
                return None
        h = cls.__new__(cls)
        h.level_names, h._ids, h._parents = level_names, ids, parents
        return h

    @property
    def depth(self) -> int:
        return len(self.level_names)

    def units_at(self, rank: int) -> list[str]:
        """Unit ids at a rank, in record order; shared, do not mutate."""
        return self._ids[rank]

    def parent_index(self, rank: int) -> np.ndarray:
        """Position of each unit's parent among the units one rank up."""
        if not 0 < rank < self.depth:
            raise GeographyError(f"no parent index at rank {rank} of a {self.depth}-level hierarchy")
        return self._parents[rank - 1]

    @property
    def leaf_ids(self) -> list[str]:
        return self._ids[-1]


def _entry_rows(w: scipy.sparse.csr_matrix) -> np.ndarray:
    """Row of each stored entry of a CSR matrix, so with its ``indices`` the
    entries in row-major order."""
    return np.repeat(np.arange(w.shape[0]), np.diff(w.indptr))


class Adjacency:
    """Symmetric 0/1 neighbor weights over the hierarchy's leaves.

    The weights are stored as one canonical CSR matrix (float, sorted
    indices, no explicit zeros), whether they were given dense or sparse.
    The proper CAR prior needs them binary and symmetric with a zero
    diagonal, so the first weight other than 0 or 1 and then the first
    asymmetric pair, each in row-major order, and then the first unit
    weighted to itself raise GeographyError naming the units. Islands and
    disconnected graphs are allowed; the spatial model judges connectivity.
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
        w = self.weights
        other = np.flatnonzero(w.data != 1)
        if other.size:
            e = other[0]
            i, k = _entry_rows(w)[e], w.indices[e]
            raise GeographyError(
                f"weight {w.data[e]} between {self.leaf_ids[i]} and {self.leaf_ids[k]}, expected 0 or 1"
            )
        asym = w != w.T
        if asym.nnz:
            i, k = min(zip(*(part.tolist() for part in asym.nonzero())))
            raise GeographyError(
                f"asymmetric weight between {self.leaf_ids[i]} and {self.leaf_ids[k]}: {w[i, k]} vs {w[k, i]}"
            )
        diag = w.diagonal()
        if np.any(diag):
            i = np.flatnonzero(diag)[0]
            raise GeographyError(f"unit {self.leaf_ids[i]}: nonzero diagonal weight {diag[i]}")

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
        upper = k > i
        return [(self.leaf_ids[a], self.leaf_ids[b]) for a, b in zip(i[upper].tolist(), k[upper].tolist())]

    def is_connected(self) -> bool:
        from scipy.sparse.csgraph import connected_components

        return self.n > 0 and connected_components(self.weights, directed=False, return_labels=False) == 1


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


def check_geography(n_leaves, branching, layout) -> None:
    """Raise GeographyError at the first rule :func:`build_synthetic_geography`
    needs its arguments to keep: at least 4 leaves; 1 to ``MAX_DEPTH - 1``
    branching factors, each a positive integer, whose product covers the
    leaves; and a known layout."""
    if not isinstance(n_leaves, int) or n_leaves < 4:
        raise GeographyError(f"need an integer number of leaves, at least 4, got {n_leaves!r}")
    if not (
        isinstance(branching, list)
        and 1 <= len(branching) < MAX_DEPTH
        and all(isinstance(b, int) and b >= 1 for b in branching)
    ):
        raise GeographyError(f"branching must be a list of 1 to {MAX_DEPTH - 1} positive integers, got {branching!r}")
    cap = int(np.prod(branching))
    if cap < n_leaves:
        raise GeographyError(f"branching {branching} supports at most {cap} leaves, requested {n_leaves}")
    if layout not in LAYOUTS:
        raise GeographyError(f"layout must be {' or '.join(LAYOUTS)}, got {layout!r}")


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
    Arguments :func:`check_geography` rejects raise its GeographyError.
    """
    branching = list(branching)
    check_geography(n_leaves, branching, layout)
    depth = len(branching) + 1
    # "root" first and the finest default names last
    names = DEFAULT_LEVEL_NAMES[:1] + DEFAULT_LEVEL_NAMES[len(DEFAULT_LEVEL_NAMES) - depth + 1 :]

    # counts per level: how many units actually exist once leaves are capped
    counts = [n_leaves]
    for b in reversed(branching[1:]):
        counts.append(int(np.ceil(counts[-1] / b)))
    counts.append(1)
    counts = counts[::-1]  # counts[rank]

    records = [("U0-0", names[0], "")]
    for rank in range(1, depth):
        fan = branching[rank - 1]
        records += [(f"U{rank}-{i}", names[rank], f"U{rank - 1}-{i // fan}") for i in range(counts[rank])]
    h = Hierarchy(records)

    rng = np.random.default_rng(np.random.SeedSequence([seed, n_leaves]))
    if layout == "grid":
        i, k = _grid_adjacency(n_leaves)
    else:
        i, k = _random_planar_adjacency(n_leaves, rng)
    adj = Adjacency(h.leaf_ids, _edge_weights(n_leaves, i, k))
    if not adj.is_connected():
        raise GeographyError(f"{layout} layout produced a disconnected leaf graph")
    return h, adj


# ---------------------------------------------------------------------------
# file round-trips


def write_hierarchy(h: Hierarchy, path) -> None:
    """One unit_id,level,parent_id row per unit, rank by rank, then the
    table's sidecar (see ``privmap.tables``), whose payload is the JSON of
    the level names, the unit ids of each rank and the parent positions of
    each rank below the root: the hierarchy the rows load as."""
    parents = [h.parent_index(rank).tolist() for rank in range(1, h.depth)]
    rows = [[h.units_at(0)[0], h.level_names[0], ""]]
    for rank in range(1, h.depth):
        up, name = h.units_at(rank - 1), h.level_names[rank]
        rows += ([uid, name, up[p]] for uid, p in zip(h.units_at(rank), parents[rank - 1]))
    write_table(path, HIERARCHY_HEADER, rows)
    ids = [h.units_at(rank) for rank in range(h.depth)]
    write_sidecar(path, HIERARCHY_HEADER, (), json.dumps([h.level_names, ids, parents]).encode())


def _payload_hierarchy(fh) -> Hierarchy | None:
    try:
        return Hierarchy._from_ranks(*json.loads(fh.read()))
    except (LookupError, TypeError, ValueError):  # not JSON, or not three lists as written
        return None


def read_hierarchy(path) -> Hierarchy:
    """Load a hierarchy from its sidecar when that matches the table's
    bytes, and otherwise from its records, which may come in any order."""
    h = sidecar_payload(path, HIERARCHY_HEADER, (), _payload_hierarchy)
    if h is not None:
        return h
    records = read_table(path, HIERARCHY_HEADER, GeographyError)
    try:
        return Hierarchy(records)
    except GeographyError as exc:
        raise GeographyError(f"{path}: {exc}") from None


def write_adjacency(a: Adjacency, path) -> None:
    write_table(path, ["unit_a", "unit_b"], a.edges())


def read_adjacency(path, leaf_ids: list[str]) -> Adjacency:
    ids = np.asarray(leaf_ids)
    edges = np.array(read_table(path, ["unit_a", "unit_b"], GeographyError), dtype=str).reshape(-1, 2)
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
    try:
        return Adjacency(leaf_ids, _edge_weights(ids.size, pos[:, 0], pos[:, 1]))
    except GeographyError as exc:
        raise GeographyError(f"{path}: {exc}") from None
