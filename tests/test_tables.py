"""The delimited-text layer: pinned on-disk bytes of every writer, loud
failures for malformed inputs, and one module owning the csv format."""

import ast
import csv
import hashlib
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import privmap
from privmap import tables
from privmap.carmodel import McmcConfig, PosteriorDraws, write_draws
from privmap.das import AuditRecord, write_audit
from privmap.errors import GeographyError, SimulationError, StandardizationError, TabulationError
from privmap.geo import build_synthetic_geography, read_adjacency, read_hierarchy, write_adjacency, write_hierarchy
from privmap.pipeline import _read_study_table, load_config, stage_report
from privmap.simulate import TABLES, synth_population
from privmap.standardize import ExpectedCounts, read_expected, write_expected
from privmap.tables import fmt, read_cells, read_keyed, read_sidecar, read_table, sidecar_path, write_cells
from privmap.tabulation import (
    AgeSchema,
    GroupSchema,
    TabulationCube,
    default_age_schema,
    default_group_schema,
    ingest,
    read_covariates,
    write_covariates,
    write_tabulation,
)

AGES, GROUPS = AgeSchema(("0-4", "5+")), GroupSchema(("NHW", "Black"))


@pytest.fixture
def geo():
    return build_synthetic_geography(4, [2, 2], "grid", seed=1)


def cube_at(h, rank, values):
    values = np.asarray(values, dtype=float).reshape(len(h.units_at(rank)), AGES.n, GROUPS.n)
    return TabulationCube(h, rank, AGES, GROUPS, values)


# ---------------------------------------------------------------------------
# format pinning: comma separated, \r\n line ends, reals at 10 significant digits


def test_geo_writers_bytes(geo, tmp_path):
    h, adj = geo
    write_hierarchy(h, tmp_path / "h.csv")
    write_adjacency(adj, tmp_path / "a.csv")
    assert (tmp_path / "h.csv").read_bytes() == (
        b"unit_id,level,parent_id\r\nU0-0,root,\r\nU1-0,blockgroup,U0-0\r\nU1-1,blockgroup,U0-0\r\n"
        b"U2-0,block,U1-0\r\nU2-1,block,U1-0\r\nU2-2,block,U1-1\r\nU2-3,block,U1-1\r\n"
    )
    assert (tmp_path / "a.csv").read_bytes() == (
        b"unit_a,unit_b\r\nU2-0,U2-1\r\nU2-0,U2-2\r\nU2-1,U2-3\r\nU2-2,U2-3\r\n"
    )


def test_tabulation_writers_bytes(geo, tmp_path):
    h, _ = geo
    write_tabulation(cube_at(h, 1, np.arange(8)), tmp_path / "int.csv", value_column="deaths")
    # reals go through write_cells' real-value path, which covariates share
    reals = [1 / 3, 2.5e-12, 1e10, -7.0, 0.1, 123456789.123, 0.0, 2 / 3]
    write_covariates(tmp_path / "real.csv", list("abcdefgh"), "x", np.array(reals))
    write_covariates(tmp_path / "cov.csv", ["a", "b", "c"], "poverty", np.array([0.1, 1 / 3, 12.0]))
    assert (tmp_path / "int.csv").read_bytes() == (
        b"unit_id,age_band,group,deaths\r\nU1-0,0-4,NHW,0\r\nU1-0,0-4,Black,1\r\nU1-0,5+,NHW,2\r\n"
        b"U1-0,5+,Black,3\r\nU1-1,0-4,NHW,4\r\nU1-1,0-4,Black,5\r\nU1-1,5+,NHW,6\r\nU1-1,5+,Black,7\r\n"
    )
    assert (tmp_path / "real.csv").read_bytes() == (
        b"unit_id,name,value\r\na,x,0.3333333333\r\nb,x,2.5e-12\r\nc,x,1e+10\r\nd,x,-7\r\n"
        b"e,x,0.1\r\nf,x,123456789.1\r\ng,x,0\r\nh,x,0.6666666667\r\n"
    )
    assert (tmp_path / "cov.csv").read_bytes() == (
        b"unit_id,name,value\r\na,poverty,0.1\r\nb,poverty,0.3333333333\r\nc,poverty,12\r\n"
    )


def test_expected_audit_and_draws_writers_bytes(geo, tmp_path):
    h, _ = geo
    ec = ExpectedCounts(["a", "b"], ("NHW", "Black"), [[1 / 3, 0.0], [2.5, 1e-7]], "truth")
    write_expected(ec, tmp_path / "exp.csv")
    audit = AuditRecord(
        "v20",
        1,
        {(0, "detail"): 0.5, (1, "detail"): 1 / 3, (1, "totals"): 0.25},
        {0: np.array([1, -1, 0, 2]).reshape(1, 2, 2), 1: np.arange(-4, 4).reshape(2, 2, 2)},
        {1: np.array([3, -2])},
        {0: cube_at(h, 0, np.zeros(4)), 1: cube_at(h, 1, np.zeros(8))},
    )
    write_audit(audit, tmp_path / "audit.csv")
    draws = PosteriorDraws(
        colnames=["intercept", "poverty"],
        beta=np.array([[0.1, 1 / 3], [-2.0, 1e-9]]),
        theta=np.zeros((2, 0)),
        phi=np.zeros((2, 0)),
        tau2=np.array([0.5, 2 / 3]),
        sigma2=np.array([1e-3, 7.0]),
        rho=np.array([0.2, 0.9]),
        mcmc=McmcConfig(10, 5, 1, seed=0),
        accept_rates={},
    )
    write_draws(draws, tmp_path / "draws.csv")
    assert (tmp_path / "exp.csv").read_bytes() == (
        b"unit_id,group,expected\r\na,NHW,0.3333333333\r\na,Black,0\r\nb,NHW,2.5\r\nb,Black,1e-07\r\n"
    )
    assert (tmp_path / "audit.csv").read_bytes() == (
        b"unit_id,age_band,group,epsilon,noise\r\nU0-0,0-4,NHW,0.5,1\r\nU0-0,0-4,Black,0.5,-1\r\n"
        b"U0-0,5+,NHW,0.5,0\r\nU0-0,5+,Black,0.5,2\r\nU1-0,0-4,NHW,0.3333333333,-4\r\n"
        b"U1-0,0-4,Black,0.3333333333,-3\r\nU1-0,5+,NHW,0.3333333333,-2\r\nU1-0,5+,Black,0.3333333333,-1\r\n"
        b"U1-1,0-4,NHW,0.3333333333,0\r\nU1-1,0-4,Black,0.3333333333,1\r\nU1-1,5+,NHW,0.3333333333,2\r\n"
        b"U1-1,5+,Black,0.3333333333,3\r\nU1-0,__all__,__all__,0.25,3\r\nU1-1,__all__,__all__,0.25,-2\r\n"
    )
    assert (tmp_path / "draws.csv").read_bytes() == (
        b"iteration,beta:intercept,beta:poverty,tau2,sigma2,rho\r\n"
        b"0,0.1,0.3333333333,0.5,0.001,0.2\r\n1,-2,1e-09,0.6666666667,7,0.9\r\n"
    )


def test_write_cells_renders_each_double_as_fmt(tmp_path):
    # a float block takes one "%.10g" per value, the spec fmt renders with
    values = [-0.0, 5e-324, 0.1, 1e16, 123456789012.5, -math.inf, math.nan, 1 / 3, -2.5e-310]
    labels = [f"c{i}" for i in range(len(values))]
    write_cells(tmp_path / "edges.csv", ["cell", "value"], [([labels], np.array(values))])
    lines = (tmp_path / "edges.csv").read_bytes().decode().split("\r\n")
    assert lines[0] == "cell,value" and lines[-1] == ""
    assert lines[1:-1] == [f"{label},{fmt(v)}" for label, v in zip(labels, values)]
    assert lines[1:6] == ["c0,-0", "c1,4.940656458e-324", "c2,0.1", "c3,1e+16", "c4,1.23456789e+11"]


def test_write_cells_escapes_percent_signs_in_labels(tmp_path):
    # labels enter the format template, so a "%" in one must come out as is
    axes = [["%d", "100%"], ["%%s", "a,%"]]
    write_cells(tmp_path / "pct.csv", ["k0", "k1", "n"], [(axes, np.arange(4, dtype=np.int64))])
    assert (tmp_path / "pct.csv").read_bytes() == (
        b'k0,k1,n\r\n%d,%%s,0\r\n%d,"a,%",1\r\n100%,%%s,2\r\n100%,"a,%",3\r\n'
    )


def test_a_write_that_fails_part_way_leaves_the_file_as_it_was(tmp_path):
    # a write goes to <path>.tmp and replaces the table only when it returns,
    # and only then is its digest recorded
    path = tmp_path / "t.csv"
    write_cells(path, ["k", "j", "v"], [([["a"], ["x"]], np.array([1]))])
    before = path.read_bytes()
    blocks = [([["a", "b"], ["x"]], np.array([3, 4])), ([["c"], ["y"]], np.array([1, 2, 3]))]
    with pytest.raises(ValueError):  # the second block's three values do not fill its one cell
        write_cells(path, ["k", "j", "v"], blocks)
    assert path.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))  # the half-written temp file is gone
    assert tables.RECORD.digests["write"][path] == hashlib.sha256(before).hexdigest()


def test_report_stage_bytes(geo, tmp_path):
    # the report reads expected counts and the simulate tables back, and
    # writes the denominator table and the text digest
    h, adj = geo
    out = tmp_path / "run"
    for sub in ("geo", "expect", "simulate"):
        (out / sub).mkdir(parents=True)
    write_hierarchy(h, out / "geo" / "hierarchy.csv")
    write_adjacency(adj, out / "geo" / "adjacency.csv")
    groups = ("NHW", "Black")
    truth = [[1.0, 0.5], [2.0, 0.0], [4.0, 0.25], [3.0, 1.0]]
    v19 = [[1.5, 0.0], [1.0, 0.0], [4.0, 0.5], [3.0, 2 / 3]]
    write_expected(ExpectedCounts(h.leaf_ids, groups, truth, "truth"), out / "expect" / "expected_truth.csv")
    write_expected(ExpectedCounts(h.leaf_ids, groups, v19, "v19"), out / "expect" / "expected_v19.csv")
    (out / "simulate" / "fractions.csv").write_bytes(
        b"source,group,mean_smr_bias,mean_smr_mape,upward_bias_pct,underestimated_expected_pct,"
        b"zero_expected_pct\r\ntruth,NHW,0.01,0.2,50,0,0\r\ntruth,Black,-0.02,0.3,25,0,25\r\n"
        b"v19,NHW,0.125,0.25,75,25,0\r\nv19,Black,nan,0.5,100,50,50\r\n"
    )
    (out / "simulate" / "coef_bias.csv").write_bytes(
        b"source,coefficient,true_value,mean_bias,sd_bias\r\n"
        b"truth,intercept,0,0.001,0.1\r\nv19,intercept,0,-0.25,0.2\r\n"
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"sim": {"sources": ["truth", "v19"]}}))
    stage_report(load_config(cfg_path), out)
    assert (out / "report" / "denominators.csv").read_bytes() == (
        b"source,group,mean_pct_error,sd_pct_error,q25,median,q75,under_pct,zero_pct\r\n"
        b"truth,NHW,0,0,0,0,0,0,0\r\ntruth,Black,0,0,0,0,0,0,25\r\n"
        b"v19,NHW,0,40.82482905,-12.5,0,12.5,25,0\r\n"
        b"v19,Black,-11.11111111,101.8350154,-66.66666667,-33.33333333,33.33333333,66.66666667,50\r\n"
    )
    assert (out / "report" / "report.txt").read_text() == "\n".join(
        [
            "privmap study report",
            "====================",
            "",
            "Denominator accuracy against the unprotected source",
            "   truth      NHW: mean %err +0.000, sd 0.000, under-estimated 0.00%, zero cells 0.00%",
            "   truth    Black: mean %err +0.000, sd 0.000, under-estimated 0.00%, zero cells 25.00%",
            "     v19      NHW: mean %err +0.000, sd 40.825, under-estimated 25.00%, zero cells 0.00%",
            "     v19    Black: mean %err -11.111, sd 101.835, under-estimated 66.67%, zero cells 50.00%",
            "",
            "Simulation study (per source and group)",
            "   truth      NHW: SMR bias +0.0100, MAPE 0.2000, upward 50.00%",
            "   truth    Black: SMR bias -0.0200, MAPE 0.3000, upward 25.00%",
            "     v19      NHW: SMR bias +0.1250, MAPE 0.2500, upward 75.00%",
            "     v19    Black: SMR bias +nan, MAPE 0.5000, upward 100.00%",
            "",
            "Coefficient bias (mean over replicates)",
            "   truth    intercept: +0.00100",
            "     v19    intercept: -0.25000",
            "",
        ]
    )


# ---------------------------------------------------------------------------
# malformed inputs: every reader fails with its module's error, naming the file


def _hierarchy(tmp_path, h, _adj):
    path = tmp_path / "hierarchy.csv"
    write_hierarchy(h, path)
    return path, lambda: read_hierarchy(path), GeographyError


def _adjacency(tmp_path, h, adj):
    path = tmp_path / "adjacency.csv"
    write_adjacency(adj, path)
    return path, lambda: read_adjacency(path, h.leaf_ids), GeographyError


def _cube(tmp_path, h, _adj):
    path = tmp_path / "population.csv"
    write_tabulation(cube_at(h, 2, np.arange(16)), path)
    return path, lambda: ingest(path, AGES, GROUPS, h), TabulationError


def _covariates(tmp_path, h, _adj):
    path = tmp_path / "covariates.csv"
    write_covariates(path, h.leaf_ids, "poverty", np.linspace(0.1, 0.4, 4))
    return path, lambda: read_covariates(path, h.leaf_ids, "poverty"), TabulationError


def _expected(tmp_path, h, _adj):
    path = tmp_path / "expected_truth.csv"
    write_expected(ExpectedCounts(h.leaf_ids, GROUPS.groups, np.ones((4, 2)), "truth"), path)
    return path, lambda: read_expected(path, h.leaf_ids, GROUPS.groups), StandardizationError


READERS = {
    "hierarchy": (_hierarchy, False),
    "adjacency": (_adjacency, False),
    "cube": (_cube, True),
    "covariates": (_covariates, True),
    "expected": (_expected, True),
}


BAD_VALUES = {"non-numeric": "abc", "negative": "-1.5", "non-integral": "1.5", "non-integral-large": "100000.5"}


def _corrupt(lines: list[str], case: str) -> list[str]:
    if case == "empty":
        return []
    if case == "short-row":
        return lines[:-1] + [lines[-1].rsplit(",", 1)[0]]
    if case in BAD_VALUES:
        return lines[:2] + [lines[2].rsplit(",", 1)[0] + "," + BAD_VALUES[case]] + lines[3:]
    if case == "duplicate-key":
        return lines + [lines[1]]
    if case == "unknown-key":
        return lines[:1] + ["bogus," + lines[1].split(",", 1)[1]] + lines[2:]
    # hierarchy rows are unit_id,level,parent_id: the root first, then a
    # unit one rank below it, the last row a leaf
    root, level_1 = lines[1].split(",")[0], lines[2].split(",")[1]
    if case == "missing-parent":
        return lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",nowhere"]
    if case == "wrong-parent-rank":
        return lines[:-1] + [lines[-1].rsplit(",", 1)[0] + "," + root]
    if case == "two-level-names":
        return lines[:-1] + [lines[-1].split(",")[0] + ",other," + lines[-1].split(",")[2]]
    if case == "detached-unknown-level":
        return lines + ["stray,other,nowhere"]
    if case == "parent-loop":
        return lines + [f"loop-a,{level_1},loop-b", f"loop-b,{level_1},loop-a"]
    if case == "too-deep":
        # four levels below a leaf of the three-level fixture: a seventh level
        parent, deeper = lines[-1].split(",")[0], []
        for k in range(4):
            deeper.append(f"deep-{k},deep{k},{parent}")
            parent = f"deep-{k}"
        return lines + deeper
    return lines + [f"extra,{level_1},{root}"]  # childless unit


@pytest.mark.parametrize(
    "reader, case",
    [
        (reader, case)
        for reader, (_, numeric) in READERS.items()
        for case in ("empty", "short-row", "non-numeric", "duplicate-key")
        if numeric or case != "non-numeric"
    ]
    + [
        ("hierarchy", case)
        for case in (
            "missing-parent",
            "wrong-parent-rank",
            "childless-unit",
            "two-level-names",
            "detached-unknown-level",
            "parent-loop",
            "too-deep",
        )
    ]
    + [("expected", "negative"), ("cube", "non-integral"), ("cube", "non-integral-large")]
    + [(reader, "unknown-key") for reader in ("adjacency", "cube", "covariates", "expected")],
)
def test_malformed_input_fails_naming_file(geo, tmp_path, reader, case):
    path, read, error = READERS[reader][0](tmp_path, *geo)
    read()  # the well-formed file loads
    lines = _corrupt(path.read_text().splitlines(), case)
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(error) as err:
        read()
    assert path.name in str(err.value)


def test_ingest_names_a_non_integral_count(geo, tmp_path):
    # as the writer wrote it, so the count is read from the sidecar: it is
    # checked exactly, not within a tolerance, and named with its cell
    h, _ = geo
    path = tmp_path / "population.csv"
    axes = [h.leaf_ids, AGES.bands, GROUPS.groups]
    write_cells(path, ["unit_id", "age_band", "group", "count"], [(axes, np.array([100000.5] + [1.0] * 15))])
    assert read_sidecar(path, ["unit_id", "age_band", "group", "count"], axes) is not None
    message = r"population\.csv: non-integral count 100000\.5 in cell \(U2-0, 0-4, NHW\)"
    with pytest.raises(TabulationError, match=message):
        ingest(path, AGES, GROUPS, h)


def test_read_covariates_names_a_row_of_another_covariate(geo, tmp_path):
    # a covariate file holds the one covariate write_covariates wrote; a row
    # of any other fails naming its label and cell
    h, _ = geo
    path = tmp_path / "covariates.csv"
    rows = [[uid, name, str(v)] for i, uid in enumerate(h.leaf_ids) for name, v in (("income", -i), ("poverty", i))]
    path.write_text("".join(",".join(row) + "\r\n" for row in [["unit_id", "name", "value"], *rows]), newline="")
    for name, other in (("poverty", "income"), ("income", "poverty"), ("smoking", "income")):
        message = rf"covariates\.csv: unknown label '{other}' in cell \(U2-0, {other}\)"
        with pytest.raises(TabulationError, match=message):
            read_covariates(path, h.leaf_ids, name)


# ---------------------------------------------------------------------------
# the record readers and the sidecar against the row-at-a-time reference;
# the test names still say "columnar", after the bulk reader the record
# readers replaced, so that their ids stay stable


def reference_read_table(path, header, error) -> list[list[str]]:
    """The records of a file whose first line is exactly ``header``.

    An empty file, any other header, or a record without exactly
    ``len(header)`` fields raises ``error`` naming the file and the line.
    """
    header = list(header)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise error(f"{path}: empty file, expected header {','.join(header)}")
        if first != header:
            raise error(f"{path}:{reader.line_num}: header {','.join(first)}, expected {','.join(header)}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise error(f"{path}:{reader.line_num}: {len(row)} fields, expected {len(header)}")
            rows.append(row)
    return rows


def reference_read_cells(path, rows, axes, error) -> np.ndarray:
    """Dense array of the last field of ``rows``, keyed by their leading fields.

    ``axes`` holds the labels of each key field, in field order; a cell's
    position on an axis is its label's position there. An unknown label, a
    value that is not a finite number, a duplicate cell or a missing cell
    raises ``error`` naming ``path`` and the cell.
    """
    index = [{label: i for i, label in enumerate(axis)} for axis in axes]
    values = np.full([len(axis) for axis in axes], np.nan)
    for row in rows:
        try:  # map stops after the key fields, one per axis
            idx = tuple(map(dict.__getitem__, index, row))
        except KeyError as exc:
            raise error(f"{path}: unknown label {exc.args[0]!r} in cell {_reference_cell(row, axes)}") from None
        if not math.isnan(values[idx]):
            raise error(f"{path}: duplicate cell {_reference_cell(row, axes)}")
        try:
            value = float(row[-1])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise error(f"{path}: value {row[-1]!r} of cell {_reference_cell(row, axes)} is not a finite number")
        values[idx] = value
    missing = np.argwhere(np.isnan(values))
    if len(missing):
        first = [axis[i] for axis, i in zip(axes, missing[0])]
        raise error(f"{path}: missing cell {_reference_cell(first, axes)} and {len(missing) - 1} more")
    return values


def _reference_cell(keys, axes) -> str:
    return f"({', '.join(keys[: len(axes)])})"


# label characters: plain ones, "%" (which the writer's format template
# escapes) and ones str.splitlines breaks at but csv does not; the quoted set
# adds those the writers quote
PLAIN_CHARS = "ab7-+ %éß北\u2028\x85\x1c\x0b"
QUOTED_CHARS = PLAIN_CHARS + ',"\r\n'
CORRUPTIONS = ("blank-line", "short-row", "long-row", "unknown-label", "duplicate", "abc", "nan", "inf", "missing-cell")


@st.composite
def keyed_tables(draw):
    """A keyed table's text (labels quoted as the writers quote them) with
    up to two corruptions, the header and the axes it is read against, and
    the values in the writer's order when the text should be exactly what
    ``write_cells`` writes, else None: an int64 array when every value is an
    integer, else a float64 one. The rows are in the writer's order
    with its line ends, or in its order or shuffled with either line end
    and a final line end or not."""
    chars = st.sampled_from(draw(st.sampled_from([PLAIN_CHARS, QUOTED_CHARS])))
    axes = [
        draw(st.lists(st.text(chars, max_size=4), min_size=1, max_size=3, unique=True))
        for _ in range(draw(st.integers(1, 3)))
    ]
    header = [f"k{j}" for j in range(len(axes))] + ["value"]
    rows = [[axis[i] for axis, i in zip(axes, cell)] for cell in np.ndindex(*map(len, axes))]
    numbers = [draw(st.one_of(st.integers(-5, 10**6), st.floats(-1e9, 1e9))) for _ in rows]
    for row, x in zip(rows, numbers):
        row.append(str(x) if isinstance(x, int) else f"{x:.10g}")
    layout = draw(st.sampled_from(["writer", "in-order", "shuffled"]))
    if layout == "shuffled":
        rows = draw(st.permutations(rows))
    corruptions = draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=2))
    dtype = np.int64 if all(isinstance(x, int) for x in numbers) else np.float64
    exact = np.array(numbers, dtype=dtype) if layout == "writer" and not corruptions else None
    blank_lines = []
    for corruption in corruptions:
        r = draw(st.integers(0, len(rows) - 1))
        if corruption in ("abc", "nan", "inf"):
            rows[r] = rows[r][:-1] + [corruption]
        elif corruption == "unknown-label":
            j = draw(st.integers(0, len(axes) - 1))
            rows[r] = rows[r][:j] + ["".join(axes[j]) + "?"] + rows[r][j + 1 :]
        elif corruption == "duplicate":
            copy = rows[r][:-1] + [draw(st.sampled_from([rows[r][-1], "nan"]))]
            rows.insert(draw(st.integers(r + 1, len(rows))), copy)
        elif corruption == "missing-cell" and len(rows) > 1:
            del rows[r]
        elif corruption == "short-row":
            rows[r] = rows[r][:-1]
        elif corruption == "long-row":
            rows[r] = rows[r] + ["x"]
        elif corruption == "blank-line":
            blank_lines.append(r)
    buf = io.StringIO()
    csv.writer(buf).writerows([header] + rows)
    lines = buf.getvalue().split("\r\n")[:-1]
    for r in blank_lines:
        lines.insert(1 + r, "")
    if layout == "writer":
        return "\r\n".join(lines) + "\r\n", header, axes, exact
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""])), header, axes, None


def _outcome(read, path):
    try:
        return read(path)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same(new, old):
    if isinstance(old, tuple):  # the same failure, word for word
        assert new == old
    else:
        assert new.shape == old.shape and new.dtype == old.dtype and new.tobytes() == old.tobytes()


def _assert_readers_agree(path, header, axes):
    """The record readers and the keyed reader against the row reference."""
    old_rows = _outcome(lambda p: reference_read_table(p, header, TabulationError), path)
    rows = _outcome(lambda p: read_table(p, header, TabulationError), path)
    keyed = _outcome(lambda p: read_keyed(p, header, axes, TabulationError), path)
    if isinstance(old_rows, tuple):
        assert rows == old_rows and keyed == old_rows
        return
    assert rows == old_rows
    old = _outcome(lambda p: reference_read_cells(p, old_rows, axes, TabulationError), path)
    _assert_same(_outcome(lambda p: read_cells(p, rows, axes, TabulationError), path), old)
    _assert_same(keyed, old)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=keyed_tables())
def test_columnar_reader_matches_row_reference(tmp_path, table):
    text, header, axes, exact = table
    path = tmp_path / "table.csv"
    path.write_text(text, newline="")
    _assert_readers_agree(path, header, axes)
    if exact is not None:  # the writer's bytes: its sidecar holds the record path's array
        written = tmp_path / "written.csv"
        write_cells(written, header, [(axes, exact)])
        assert written.read_bytes() == path.read_bytes()
        from_sidecar = read_sidecar(written, header, axes)
        assert from_sidecar is not None
        _assert_same(from_sidecar, read_keyed(path, header, axes, TabulationError))
        _assert_same(read_keyed(written, header, axes, TabulationError), from_sidecar)


_QUOTED = [["a", "a\r\n"]]  # a label the writer quotes
_PLAIN = [["a", "b"]]
_EDGES = [(text, _QUOTED) for text in (
    "", "\n", "\r\n", "k,value", "k,value\r\n", "k,value\n\n", "k,value\r\n\r\n", "k,value\ra,1", "k,value\na,1\n\n",
    "k,value\r\na,1\r\nb", "k,v\na,1", '"k",value\na,1', 'k,value\n"a",1\n"a\r\n",2')] + [
    ("k,value\r\na,1\n\r\nb,2\r\n", _PLAIN),
    ("k,value\r\na,1\r\r\nb,2\r\n", _PLAIN),
    ("k,value\r\na,1\r\r\nb,2\n\r\n", _PLAIN),
    ("k,value\n\ra,1\n\rb,2\n\r", _PLAIN),  # as many "\r" as "\n", and no "\r\n"
    ("k,value\r\na,1\r\n2\r\n", _PLAIN),  # a record that is only a number
    ("k,value\r\na,1\r\nb,2,3\r\n", _PLAIN),
    ("k,value\r\na,1\r\nb,2", _PLAIN),
    ("k,value\r\na,1\r\nb,2\r\nb,3", _PLAIN),
    ("k,value\r\na,1\r\n2\r\nxy", _PLAIN),
    ("k,VALUE\r\na,1\r\nb,2\r\n", _PLAIN),
    ('k,value\r\n"a",1\r\nb,2\r\n', _PLAIN),
    ("k,value\r\na,nan\r\nb,2\r\n", _PLAIN),
    ("k,value\r\nb,2\r\na,1\r\n", _PLAIN),
    ("k,value\r\na,-1\r\nb,2\r\n", _PLAIN),  # a negative count is the caller's check
    ("k,value\r\na,1\r\nb,2\r\n", _PLAIN),
]


@pytest.mark.parametrize(("text", "axes"), [pytest.param(*edge, id=edge[0]) for edge in _EDGES])
def test_columnar_reader_matches_row_reference_at_edges(tmp_path, text, axes):
    path = tmp_path / "table.csv"
    path.write_text(text, newline="")
    _assert_readers_agree(path, ["k", "value"], axes)


def test_ingest_reads_the_writers_leaf_cube_from_its_sidecar(geo, tmp_path):
    h, _ = geo
    header = ["unit_id", "age_band", "group", "count"]
    rank = h.depth - 1
    cube = cube_at(h, rank, np.arange(len(h.leaf_ids) * AGES.n * GROUPS.n))
    path = tmp_path / "leaves.csv"
    write_tabulation(cube, path)
    assert read_sidecar(path, header, [h.leaf_ids, AGES.bands, GROUPS.groups]) is not None
    read = ingest(path, AGES, GROUPS, h)
    assert read.rank == rank and read.values.tobytes() == cube.values.tobytes()


def _edit_a_byte(path, sidecar, other):
    text = path.read_bytes()
    path.write_bytes(text[:-3] + b"x" + text[-2:])  # the last value's last digit


def _truncate(path, sidecar, other):
    sidecar.write_bytes(sidecar.read_bytes()[:-1])


def _foreign(path, sidecar, other):
    sidecar.write_bytes(sidecar_path(other).read_bytes())


def _remove(path, sidecar, other):
    sidecar.unlink()


def _repeat_the_first_record(path, sidecar, other):
    lines = path.read_bytes().split(b"\r\n")
    path.write_bytes(b"\r\n".join(lines[:2] + lines[1:]))


SIDECAR_FAULTS = {
    "edited-byte": _edit_a_byte,
    "truncated": _truncate,
    "foreign": _foreign,
    "missing": _remove,
    "duplicate-key": _repeat_the_first_record,  # the sidecar left stale
    "renamed-leaf": None,  # the reader's axes change, not the files
    "written-nan": None,
    "repeated-label": None,  # with the next, a table the writer gives no sidecar
    "extra-header-field": None,
}


def _reparent(path, sidecar, other):
    # the envelope kept, so it still matches the table; every unit of the
    # last rank moved under the first unit one rank up, leaving the others
    # there childless: a payload without a hierarchy's shape
    data = sidecar.read_bytes()
    level_names, ids, parents = json.loads(data[tables._HEAD :])
    parents[-1] = [0] * len(parents[-1])
    sidecar.write_bytes(data[: tables._HEAD] + json.dumps([level_names, ids, parents]).encode())


def _set_a_parent(position):
    # the envelope kept, as above; the first leaf's parent position edited
    def edit(path, sidecar, other):
        data = sidecar.read_bytes()
        level_names, ids, parents = json.loads(data[tables._HEAD :])
        parents[-1][0] = position(len(ids[-2]))
        sidecar.write_bytes(data[: tables._HEAD] + json.dumps([level_names, ids, parents]).encode())

    return edit


HIERARCHY_FAULTS = {
    **{fault: SIDECAR_FAULTS[fault] for fault in ("edited-byte", "truncated", "foreign", "missing", "duplicate-key")},
    "reparented": _reparent,
    "negative-parent": _set_a_parent(lambda n_up: -1),
    "parent-past-the-end": _set_a_parent(lambda n_up: n_up),
}


def _ranks(h):
    ids = [h.units_at(r) for r in range(h.depth)]
    return [h.level_names, ids, [h.parent_index(r).tolist() for r in range(1, h.depth)]]


@pytest.mark.parametrize(
    "fault",
    list(SIDECAR_FAULTS) + [f"hierarchy-{fault}" for fault in HIERARCHY_FAULTS],
)
def test_a_faulty_sidecar_leaves_the_table_to_the_record_path(geo, tmp_path, fault, monkeypatch):
    # every case reads exactly as the table read without any sidecar: its
    # values, or the record path's error word for word
    h, _ = geo
    if fault.startswith("hierarchy-"):  # the hierarchy's sidecar, faulted as a keyed table's
        fault = fault.removeprefix("hierarchy-")
        path, other = tmp_path / "hierarchy.csv", tmp_path / "other.csv"
        write_hierarchy(build_synthetic_geography(6, [2, 3], "grid", seed=1)[0], other)
        write_hierarchy(h, path)
        HIERARCHY_FAULTS[fault](path, sidecar_path(path), other)
        records = []
        monkeypatch.setattr("privmap.geo.read_table", lambda *args: records.append(args) or read_table(*args))
        read = _outcome(lambda p: _ranks(read_hierarchy(p)), path)
        assert len(records) == 1  # the record path
        sidecar_path(path).unlink(missing_ok=True)
        assert read == _outcome(lambda p: _ranks(read_hierarchy(p)), path)
        assert isinstance(read, tuple) == (fault in ("edited-byte", "duplicate-key"))
        return
    header = ["unit_id", "age_band", "group", "count"]
    axes = [h.leaf_ids, AGES.bands, GROUPS.groups]
    values = np.arange(16.0) + 0.5
    if fault == "written-nan":
        values[5] = math.nan
    path, other = tmp_path / "population.csv", tmp_path / "other.csv"
    write_cells(other, header, [(axes, values[::-1].copy())])
    if fault == "repeated-label":
        axes = [[h.leaf_ids[0]] * 4, AGES.bands, GROUPS.groups]
    if fault == "extra-header-field":
        header = header + ["note"]
    write_cells(path, header, [(axes, values)])
    sidecar = sidecar_path(path)
    assert sidecar.exists() == (fault not in ("repeated-label", "extra-header-field"))
    if SIDECAR_FAULTS[fault]:
        SIDECAR_FAULTS[fault](path, sidecar, other)
    if fault == "renamed-leaf":
        axes = [["renamed"] + h.leaf_ids[1:], AGES.bands, GROUPS.groups]
    read = _outcome(lambda p: read_keyed(p, header, axes, TabulationError), path)
    assert read_sidecar(path, header, axes) is None
    sidecar.unlink(missing_ok=True)
    _assert_same(read, _outcome(lambda p: read_keyed(p, header, axes, TabulationError), path))
    assert isinstance(read, tuple) == (fault not in ("truncated", "foreign", "missing"))


@pytest.mark.parametrize("text", ["1_000", " 5", "5\t", "５", "1e\u0665"])
def test_a_number_takes_the_writers_syntax_only(tmp_path, text):
    # float() takes each of these; a table cell and a study table cell
    # holding one fail naming the file and the cell
    path = tmp_path / "table.csv"
    path.write_text(f'k,value\r\na,1\r\nb,"{text}"\r\n', newline="")
    message = f"table\\.csv: value {re.escape(repr(text))} of cell \\(b\\) is not a finite number"
    with pytest.raises(TabulationError, match=message):
        read_keyed(path, ["k", "value"], _PLAIN, TabulationError)
    study = tmp_path / "coef_bias.csv"
    study.write_text(f'source,coefficient,true_value,mean_bias,sd_bias\r\ntruth,beta,0,"{text}",1\r\n', newline="")
    message = f"coef_bias\\.csv: value {re.escape(repr(text))} of cell \\(truth, beta, mean_bias\\) is not a number"
    with pytest.raises(SimulationError, match=message):
        _read_study_table(study, TABLES["coef_bias"])


def test_ingest_memory_at_10k_leaves(tmp_path):
    # 140,000 cells: read from the sidecar the cube peaked at 2.4 MB; the
    # record reader, one list of strings per line, peaks at 41.5 MB
    h, _ = build_synthetic_geography(10_000, [4, 5, 5, 10, 10], "grid", seed=5)
    ages, groups = default_age_schema(), default_group_schema()
    pop = synth_population(h, ages, groups, seed=5)
    path = tmp_path / "population.csv"
    write_tabulation(pop, path)
    tracemalloc.start()
    try:
        cube = ingest(path, ages, groups, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cube.values.tobytes() == pop.values.tobytes()
    assert peak < 25e6, f"traced peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# tooling guard


def test_only_the_tables_module_imports_csv():
    offenders = []
    for path in sorted(Path(privmap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "csv" in (name.split(".")[0] for name in names) and path.name != "tables.py":
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"csv imported outside privmap/tables.py: {offenders}"


SQUARE_CONSTRUCTORS = {"zeros", "ones", "empty", "full"}


def _densifies(node: ast.AST) -> bool:
    """A call that turns a sparse matrix dense or allocates an (n, n) array."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    name = node.func.attr
    if name in ("toarray", "todense", "eye", "identity"):
        return True
    if name not in SQUARE_CONSTRUCTORS or not node.args or not isinstance(node.args[0], ast.Tuple):
        return False
    dims = [ast.dump(dim) for dim in node.args[0].elts]
    return len(dims) == 2 and dims[0] == dims[1]


def test_no_module_densifies_the_adjacency():
    # the adjacency is stored sparse, and the CAR plan and the prior draw
    # factor the precision sparse too: no module builds a dense n x n matrix
    offenders = []
    for path in sorted(Path(privmap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _densifies(node)]
    assert not offenders, f"dense n x n matrix in privmap: {offenders}"


def test_densify_guard_flags_dense_allocations():
    for source in ("np.zeros((n, n))", "np.zeros((ids.size, ids.size))", "w.toarray()", "w.todense()", "np.eye(n)"):
        assert any(_densifies(node) for node in ast.walk(ast.parse(source))), source
    for source in ("np.zeros((n, k))", "np.zeros(n)", "np.zeros((n, ages.n, groups.n))"):
        assert not any(_densifies(node) for node in ast.walk(ast.parse(source))), source
