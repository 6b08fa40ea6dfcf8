import tracemalloc

import numpy as np
import pytest

from privmap.errors import GeographyError
from privmap.geo import (
    LAYOUTS,
    Adjacency,
    Hierarchy,
    build_synthetic_geography,
    read_adjacency,
    read_hierarchy,
    write_adjacency,
    write_hierarchy,
)
from privmap.tables import sidecar_path


def test_2x2_grid_corner_degree():
    h, adj = build_synthetic_geography(4, [2, 2], "grid", seed=1)
    assert len(h.leaf_ids) == 4
    # every unit of a 2x2 rook grid touches exactly two neighbors
    assert np.all(adj.row_sums == 2)


def test_3x3_grid_center_degree():
    h, adj = build_synthetic_geography(9, [3, 3], "grid", seed=1)
    degrees = adj.row_sums
    assert degrees[4] == 4  # center
    assert sorted(degrees.tolist()).count(2.0) == 4  # corners


@pytest.mark.parametrize("n,branching", [(4, [2, 2]), (9, [3, 3]), (12, [3, 4]), (30, [5, 6])])
def test_grid_edge_count(n, branching):
    _, adj = build_synthetic_geography(n, branching, "grid", seed=3)
    r = int(np.floor(np.sqrt(n)))
    while r > 1 and n % r != 0:
        r -= 1
    c = n // r
    assert len(adj.edges()) == 2 * r * c - r - c


def test_same_seed_identical():
    h1, a1 = build_synthetic_geography(20, [4, 5], "random-planar", seed=42)
    h2, a2 = build_synthetic_geography(20, [4, 5], "random-planar", seed=42)
    assert all(h1.units_at(r) == h2.units_at(r) for r in range(h1.depth))
    assert np.array_equal(a1.weights.toarray(), a2.weights.toarray())


def test_different_seed_differs_random_planar():
    _, a1 = build_synthetic_geography(30, [5, 6], "random-planar", seed=1)
    _, a2 = build_synthetic_geography(30, [5, 6], "random-planar", seed=2)
    assert not np.array_equal(a1.weights.toarray(), a2.weights.toarray())


def test_random_planar_connected_no_islands():
    _, adj = build_synthetic_geography(40, [5, 8], "random-planar", seed=7)
    assert adj.is_connected()
    assert np.all(adj.row_sums >= 1)
    assert np.array_equal(adj.weights.toarray(), adj.weights.toarray().T)


def test_rejects_branching_mismatch():
    with pytest.raises(GeographyError):
        build_synthetic_geography(30, [2, 3], "grid", seed=1)


def test_rejects_too_few_leaves():
    with pytest.raises(GeographyError):
        build_synthetic_geography(3, [2, 2], "grid", seed=1)


def test_rejects_unknown_layout():
    with pytest.raises(GeographyError):
        build_synthetic_geography(4, [2, 2], "hexagons", seed=1)


def test_tree_property_counts():
    h, _ = build_synthetic_geography(30, [5, 6], "grid", seed=1)
    assert h.units_at(0) == ["U0-0"]
    # depth-first traversal from the root reaches every unit exactly once
    children = {}
    for rank in range(1, h.depth):
        up = h.units_at(rank - 1)
        for uid, p in zip(h.units_at(rank), h.parent_index(rank)):
            children.setdefault(up[p], []).append(uid)
    seen, stack = [], h.units_at(0)[:]
    while stack:
        uid = stack.pop()
        seen.append(uid)
        stack.extend(children.get(uid, []))
    assert sorted(seen) == sorted(uid for rank in range(h.depth) for uid in h.units_at(rank))


def test_per_rank_index_arrays_follow_insertion_order():
    # records listed out of rank order, siblings not contiguous
    records = [
        ("b1", "leaf", "a2"),
        ("a1", "mid", "r"),
        ("r", "root", ""),
        ("b2", "leaf", "a1"),
        ("a2", "mid", "r"),
        ("b3", "leaf", "a2"),
    ]
    h = Hierarchy.from_records(records)
    assert h.level_names == ["root", "mid", "leaf"]
    assert h.units_at(1) == ["a1", "a2"]
    assert h.leaf_ids == ["b1", "b2", "b3"]
    assert h.parent_index(2).tolist() == [1, 0, 1]
    assert h.parent_index(1).tolist() == [0, 0]
    with pytest.raises(GeographyError):
        h.parent_index(0)


def test_missing_parent_fails_at_construction():
    records = [("r", "root", ""), ("a", "leaf", "r"), ("b", "leaf", "ghost"), ("c", "leaf", "r")]
    with pytest.raises(GeographyError, match="unit b: missing parent ghost"):
        Hierarchy.from_records(records)


@pytest.mark.parametrize(
    "records, message",
    [
        ([("r", "root", ""), ("a", "leaf", "r"), ("a", "leaf", "r")], "unit id a is not unique"),
        ([("r", "root", ""), ("s", "root", ""), ("a", "leaf", "r")], "exactly one root, found 2"),
        ([("r", "root", ""), ("a", "leaf", "b"), ("b", "leaf", "a")], "unit a: parent chain loops"),
        ([("r", "root", ""), ("a", "leaf", "r"), ("b", "mid", "r")], "rank 1 has two level names, 'leaf' and 'mid' (unit b)"),
        ([("r", "root", ""), ("a", "mid", "r"), ("b", "leaf", "a"), ("c", "mid", "r")], "unit c: no children at mid level"),
    ],
)
def test_malformed_records_fail_naming_the_fault(records, message):
    with pytest.raises(GeographyError) as err:
        Hierarchy.from_records(records)
    assert message in str(err.value)


@pytest.mark.parametrize(
    "parents, message",
    [
        ([[0, 0], [0, 1, 2]], "rank 2 needs one parent position per unit, each below 2"),
        ([[0, 0], [-1, 1, 1]], "rank 2 needs one parent position per unit, each below 2"),
        ([[0, 0], [1, 1, 1]], "unit a: no children at mid level"),
    ],
)
def test_array_constructor_rejects_a_parent_out_of_range_or_a_childless_unit(parents, message):
    with pytest.raises(GeographyError, match=message):
        Hierarchy(["root", "mid", "leaf"], [["r"], ["a", "b"], ["x", "y", "z"]], parents)


def test_asymmetric_weight_fails_at_construction_naming_the_pair():
    h, adj = build_synthetic_geography(4, [2, 2], "grid", seed=1)
    w = adj.weights.toarray()
    w[3, 2] = w[1, 0] = 0.0  # the first pair in row-major order is named
    with pytest.raises(GeographyError, match=r"asymmetric weight between U2-0 and U2-1: 1\.0 vs 0\.0"):
        Adjacency(h.leaf_ids, w)


@pytest.mark.parametrize(
    ("w", "message"),
    [
        ([[0, 2, 0], [2, 0, -1], [0, -1, 0]], "weight 2.0 between u0 and u1, expected 0 or 1"),
        ([[0, 1, 0], [1, 0, -1], [0, -1, 0]], "weight -1.0 between u1 and u2, expected 0 or 1"),
        ([[0, 0.5, 0], [0.5, 0, 1], [0, 1, 0]], "weight 0.5 between u0 and u1, expected 0 or 1"),
    ],
)
def test_non_binary_weight_fails_at_construction_naming_the_pair(w, message):
    # the CAR prior and the adjacency file know only 0/1 weights: a weight of
    # 2 would count twice in a degree, and a negative one is lost on writing
    with pytest.raises(GeographyError) as err:
        Adjacency(["u0", "u1", "u2"], np.array(w, dtype=float))
    assert message in str(err.value)


def test_diagonal_weight_fails_at_construction_naming_the_unit():
    h, adj = build_synthetic_geography(4, [2, 2], "grid", seed=1)
    w = adj.weights.toarray()
    w[2, 2] = 1.0
    with pytest.raises(GeographyError, match=r"unit U2-2: nonzero diagonal weight 1\.0"):
        Adjacency(h.leaf_ids, w)


def test_island_constructs_and_is_not_connected():
    h, adj = build_synthetic_geography(4, [2, 2], "grid", seed=1)
    w = adj.weights.toarray()
    w[3, :] = 0.0
    w[:, 3] = 0.0
    island = Adjacency(h.leaf_ids, w)
    assert island.row_sums[3] == 0 and not island.is_connected()


def test_hierarchy_file_roundtrip(tmp_path):
    h, adj = build_synthetic_geography(12, [3, 4], "grid", seed=5)
    hp = tmp_path / "hierarchy.csv"
    ap = tmp_path / "adjacency.csv"
    write_hierarchy(h, hp)
    write_adjacency(adj, ap)
    h2 = read_hierarchy(hp)
    a2 = read_adjacency(ap, h2.leaf_ids)
    sidecar_path(hp).unlink()  # h2 came from the sidecar; the records load the same hierarchy
    for h3 in (h2, read_hierarchy(hp)):
        assert all(h3.units_at(r) == h.units_at(r) for r in range(h.depth))
        assert all(np.array_equal(h3.parent_index(r), h.parent_index(r)) for r in range(1, h.depth))
        assert h3.level_names == h.level_names
    assert np.array_equal(a2.weights.toarray(), adj.weights.toarray())
    # writing again gives identical bytes
    hp2 = tmp_path / "hierarchy2.csv"
    write_hierarchy(h2, hp2)
    assert hp.read_bytes() == hp2.read_bytes()


def test_adjacency_reader_rejects_unknown_leaf(tmp_path):
    h, adj = build_synthetic_geography(4, [2, 2], "grid", seed=1)
    ap = tmp_path / "adjacency.csv"
    ap.write_text("unit_a,unit_b\nU2-0,U9-99\n")
    with pytest.raises(GeographyError):
        read_adjacency(ap, h.leaf_ids)


def test_depth_bounds():
    with pytest.raises(GeographyError, match="hierarchy depth must be between 2 and 6, got 1"):
        Hierarchy.from_records([("r", "root", "")])


def test_hierarchy_rows_in_any_order_load_same_ranks(tmp_path):
    h, _ = build_synthetic_geography(30, [2, 3, 5], "grid", seed=5)
    ordered, shuffled = tmp_path / "ordered.csv", tmp_path / "shuffled.csv"
    write_hierarchy(h, ordered)
    header, root, *rest = ordered.read_text().splitlines()
    order = np.random.default_rng(0).permutation(len(rest))
    shuffled.write_text("\n".join([header] + [rest[i] for i in order] + [root]) + "\n")
    a, b = read_hierarchy(ordered), read_hierarchy(shuffled)
    assert all(sorted(b.units_at(r)) == sorted(a.units_at(r)) for r in range(a.depth))
    assert b.level_names == a.level_names
    assert sorted(b.leaf_ids) == sorted(a.leaf_ids)


def test_hierarchy_level_name_at_two_ranks_rejected(tmp_path):
    h, _ = build_synthetic_geography(12, [3, 4], "grid", seed=5)
    path = tmp_path / "hierarchy.csv"
    write_hierarchy(h, path)
    lines = path.read_text().splitlines()
    uid, _, parent = lines[2].split(",")  # a unit one rank below the root
    lines[2] = f"{uid},{h.level_names[-1]},{parent}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GeographyError, match=f"hierarchy.csv: level '{h.level_names[-1]}' used at ranks"):
        read_hierarchy(path)


def test_adjacency_reader_reports_first_offender_in_file_order(tmp_path):
    h, _ = build_synthetic_geography(4, [2, 2], "grid", seed=1)
    ap = tmp_path / "adjacency.csv"
    # a reversed repeat is a duplicate, and it comes before the unknown leaf
    ap.write_text("unit_a,unit_b\nU2-0,U2-1\nU2-1,U2-0\nU2-0,U9-99\n")
    with pytest.raises(GeographyError, match=r"adjacency.csv: duplicate edge \(U2-1, U2-0\)"):
        read_adjacency(ap, h.leaf_ids)
    ap.write_text("unit_a,unit_b\nU2-0,U2-1\nU2-0,U9-99\nU2-1,U2-0\n")
    with pytest.raises(GeographyError, match=r"adjacency.csv: edge \(U2-0, U9-99\) references unknown leaf"):
        read_adjacency(ap, h.leaf_ids)



# ---------------------------------------------------------------------------
# sparse storage: dense references and memory


def dense_edges(w: np.ndarray) -> list[tuple[int, int]]:
    """Reference edge list of the dense representation, as an index pair list."""
    return [(int(i), int(k)) for i, k in np.argwhere(np.triu(w, 1) > 0)]


def test_sparse_edges_match_dense_reference(oracle_adjacency):
    adj = oracle_adjacency
    w = adj.weights
    assert w.has_sorted_indices and w.dtype == float and np.all(w.data != 0)
    dense = w.toarray()
    assert adj.edges() == [(adj.leaf_ids[i], adj.leaf_ids[k]) for i, k in dense_edges(dense)]
    assert np.array_equal(adj.row_sums, dense.sum(axis=1))
    assert adj.is_connected()


def test_sparse_and_dense_weights_store_the_same_csr():
    _, adj = build_synthetic_geography(30, [5, 6], "random-planar", seed=2)
    from_dense = Adjacency(adj.leaf_ids, adj.weights.toarray()).weights
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(from_dense, part), getattr(adj.weights, part))
    with pytest.raises(GeographyError, match=r"weight matrix shape \(30, 29\) does not match 30 leaves"):
        Adjacency(adj.leaf_ids, adj.weights[:, :29])


@pytest.mark.parametrize("layout", LAYOUTS)
def test_geography_round_trip_allocates_no_dense_matrix(tmp_path, layout):
    # a dense 5,000 x 5,000 float matrix is 200 MB
    tracemalloc.start()
    try:
        h, adj = build_synthetic_geography(5000, [5, 10, 10, 10], layout, seed=3)
        path = tmp_path / "adjacency.csv"
        write_adjacency(adj, path)
        read = read_adjacency(path, h.leaf_ids)
        assert read.is_connected()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6, f"traced peak {peak / 1e6:.1f} MB"
