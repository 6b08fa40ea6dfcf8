import numpy as np
import pytest

from privmap.errors import TabulationError
from privmap.geo import build_synthetic_geography
from privmap.tabulation import (
    AgeSchema,
    GroupSchema,
    TabulationCube,
    aggregate,
    ingest,
    leveled_cubes,
    unit_totals,
    write_tabulation,
)


@pytest.fixture
def tiny_geo():
    return build_synthetic_geography(4, [2, 2], "grid", seed=1)


def write_rows(path, rows, value_column="count"):
    lines = [f"unit_id,age_band,group,{value_column}"]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_ingest_totals(tiny_geo, tmp_path):
    h, _ = tiny_geo
    ages, groups = AgeSchema(("all",)), GroupSchema(("pop",))
    f = tmp_path / "tab.csv"
    counts = {uid: c for uid, c in zip(h.leaf_ids, (100, 50, 25, 10))}
    write_rows(f, [(uid, "all", "pop", c) for uid, c in counts.items()])
    cube = ingest(f, ages, groups, h)
    assert cube.total == 185
    assert cube.values[0, 0, 0] == 100


def test_ingest_negative_count_fails(tiny_geo, tmp_path):
    h, _ = tiny_geo
    ages, groups = AgeSchema(("all",)), GroupSchema(("pop",))
    f = tmp_path / "tab.csv"
    rows = [(uid, "all", "pop", 5) for uid in h.leaf_ids]
    rows[2] = (h.leaf_ids[2], "all", "pop", -1)
    write_rows(f, rows)
    with pytest.raises(TabulationError, match="negative"):
        ingest(f, ages, groups, h)


def test_ingest_missing_cell_names_cell(tiny_geo, tmp_path):
    h, _ = tiny_geo
    ages, groups = AgeSchema(("all",)), GroupSchema(("pop",))
    f = tmp_path / "tab.csv"
    write_rows(f, [(uid, "all", "pop", 5) for uid in h.leaf_ids[:-1]])
    with pytest.raises(TabulationError) as err:
        ingest(f, ages, groups, h)
    assert h.leaf_ids[-1] in str(err.value)


def test_ingest_duplicate_cell_fails(tiny_geo, tmp_path):
    h, _ = tiny_geo
    ages, groups = AgeSchema(("all",)), GroupSchema(("pop",))
    f = tmp_path / "tab.csv"
    rows = [(uid, "all", "pop", 5) for uid in h.leaf_ids]
    rows.append((h.leaf_ids[0], "all", "pop", 6))
    write_rows(f, rows)
    with pytest.raises(TabulationError, match="duplicate"):
        ingest(f, ages, groups, h)


def test_ingest_unknown_unit_fails(tiny_geo, tmp_path):
    h, _ = tiny_geo
    ages, groups = AgeSchema(("all",)), GroupSchema(("pop",))
    f = tmp_path / "tab.csv"
    write_rows(f, [("nowhere", "all", "pop", 5)])
    with pytest.raises(TabulationError, match=r"tab\.csv: unknown label 'nowhere' in cell \(nowhere, all, pop\)"):
        ingest(f, ages, groups, h)


def test_aggregate_sums_children(tiny_geo):
    h, _ = tiny_geo
    ages, groups = AgeSchema(("all",)), GroupSchema(("pop",))
    vals = np.array([3.0, 7.0, 2.0, 5.0]).reshape(4, 1, 1)
    cube = TabulationCube(h, 2, ages, groups, vals)
    parents = aggregate(cube, 1)
    assert parents.values[0, 0, 0] == 10  # first parent holds first two leaves
    root = aggregate(cube, 0)
    assert root.values[0, 0, 0] == 17
    assert root.total == cube.total


def test_aggregate_path_independence():
    h, _ = build_synthetic_geography(12, [3, 4], "grid", seed=2)
    ages, groups = AgeSchema(("a", "b")), GroupSchema(("x", "y", "z"))
    rng = np.random.default_rng(0)
    cube = TabulationCube(h, 2, ages, groups, rng.integers(0, 50, (12, 2, 3)).astype(float))
    via_middle = aggregate(aggregate(cube, 1), 0)
    direct = aggregate(cube, 0)
    assert np.array_equal(via_middle.values, direct.values)


def test_aggregate_total_preserved_exactly():
    h, _ = build_synthetic_geography(30, [5, 6], "grid", seed=2)
    ages, groups = AgeSchema(("a", "b", "c")), GroupSchema(("x", "y"))
    rng = np.random.default_rng(1)
    cube = TabulationCube(h, 2, ages, groups, rng.integers(0, 99, (30, 3, 2)).astype(float))
    for rank in (1, 0):
        assert aggregate(cube, rank).total == cube.total


def test_roundtrip_bit_exact(tiny_geo, tmp_path):
    h, _ = tiny_geo
    ages = AgeSchema(("0-4", "5-14"))
    groups = GroupSchema(("NHW", "Black"))
    rng = np.random.default_rng(4)
    cube = TabulationCube(h, 2, ages, groups, rng.integers(0, 500, (4, 2, 2)).astype(float))
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    write_tabulation(cube, f1)
    cube2 = ingest(f1, ages, groups, h)
    write_tabulation(cube2, f2)
    assert f1.read_bytes() == f2.read_bytes()
    assert np.array_equal(cube.values, cube2.values)


def test_integer_cube_rejects_negative_and_fractional(tiny_geo):
    h, _ = tiny_geo
    ages, groups = AgeSchema(("a",)), GroupSchema(("x",))
    with pytest.raises(TabulationError):
        TabulationCube(h, 2, ages, groups, -np.ones((4, 1, 1)))
    with pytest.raises(TabulationError):
        TabulationCube(h, 2, ages, groups, np.full((4, 1, 1), 0.5))


def test_cube_leaves_the_callers_array_writeable(tiny_geo):
    h, _ = tiny_geo
    values = np.zeros((4, 7, 2))
    cube = TabulationCube(h, 2, AgeSchema(tuple("abcdefg")), GroupSchema(("x", "y")), values)
    assert values.flags.writeable and not cube.values.flags.writeable
    values[0, 0, 0] = 5.0
    assert cube.values[0, 0, 0] == 0.0


def test_leveled_cubes_and_unit_totals():
    h, _ = build_synthetic_geography(12, [3, 4], "grid", seed=2)
    ages, groups = AgeSchema(("a", "b")), GroupSchema(("x",))
    rng = np.random.default_rng(9)
    cube = TabulationCube(h, 2, ages, groups, rng.integers(0, 30, (12, 2, 1)).astype(float))
    levels = leveled_cubes(cube)
    assert set(levels) == {0, 1, 2}
    assert levels[0].total == cube.total
    assert unit_totals(levels[0])[0] == cube.total
