import math

import numpy as np
import pytest

from privmap.errors import StandardizationError
from privmap.geo import build_synthetic_geography
from privmap.standardize import (
    ExpectedCounts,
    check_totals,
    expected_counts,
    percent_error,
    rates_from_cubes,
    read_expected,
    read_totals,
    reference_rates,
    underestimation_fraction,
    write_expected,
    write_totals,
    zero_count_percent,
)
from privmap.tabulation import AgeSchema, GroupSchema, TabulationCube, aggregate


def make_cube(values, ages, groups, n_leaves=4, branching=(2, 2)):
    h, _ = build_synthetic_geography(n_leaves, list(branching), "grid", seed=1)
    return TabulationCube(h, 2, ages, groups, values)


def test_reference_rates_direct_ratio():
    ages = AgeSchema(("all",))
    rr = reference_rates(np.array([10.0]), np.array([1000.0]), ages)
    assert rr.rates[0] == pytest.approx(0.01)


def test_reference_rates_degenerate_band():
    ages = AgeSchema(("a", "b"))
    rr = reference_rates(np.array([0.0, 5.0]), np.array([0.0, 500.0]), ages)
    assert rr.rates[0] == 0.0
    assert rr.rates[1] == pytest.approx(0.01)


def test_reference_rates_two_bands():
    ages = AgeSchema(("a", "b"))
    rr = reference_rates(np.array([10.0, 40.0]), np.array([1000.0, 2000.0]), ages)
    assert rr.rates == pytest.approx([0.01, 0.02])


def test_reference_rates_deaths_without_population():
    ages = AgeSchema(("a",))
    with pytest.raises(StandardizationError):
        reference_rates(np.array([3.0]), np.array([0.0]), ages)


def test_expected_counts_hand_oracle():
    # P = 0.01*100 + 0.02*50 = 2.0, summed by hand
    ages, groups = AgeSchema(("a", "b")), GroupSchema(("pop",))
    vals = np.zeros((4, 2, 1))
    vals[0, :, 0] = [100.0, 50.0]
    cube = make_cube(vals, ages, groups)
    rr = reference_rates(np.array([10.0, 40.0]), np.array([1000.0, 2000.0]), ages)
    ec = expected_counts(cube, rr, "truth")
    assert ec.values[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert ec.values[1, 0] == 0.0


def test_expected_counts_zero_populations():
    ages, groups = AgeSchema(("a",)), GroupSchema(("pop",))
    cube = make_cube(np.zeros((4, 1, 1)), ages, groups)
    rr = reference_rates(np.array([5.0]), np.array([100.0]), ages)
    assert np.all(expected_counts(cube, rr).values == 0)


def test_expected_counts_linearity():
    ages, groups = AgeSchema(("a", "b", "c")), GroupSchema(("x", "y"))
    rng = np.random.default_rng(2)
    v1 = rng.integers(0, 50, (4, 3, 2)).astype(float)
    v2 = rng.integers(0, 50, (4, 3, 2)).astype(float)
    rr = reference_rates(
        np.array([1.0, 2.0, 4.0]), np.array([100.0, 100.0, 100.0]), ages
    )
    c1, c2 = make_cube(v1, ages, groups), make_cube(v2, ages, groups)
    c12 = make_cube(v1 + v2, ages, groups)
    total = expected_counts(c1, rr).values + expected_counts(c2, rr).values
    assert expected_counts(c12, rr).values == pytest.approx(total, abs=1e-12)
    doubled = expected_counts(make_cube(2 * v1, ages, groups), rr).values
    assert doubled == pytest.approx(2 * expected_counts(c1, rr).values, abs=1e-12)


def test_expected_counts_schema_mismatch():
    ages, groups = AgeSchema(("a",)), GroupSchema(("pop",))
    cube = make_cube(np.ones((4, 1, 1)), ages, groups)
    rr = reference_rates(np.array([1.0, 2.0]), np.array([10.0, 10.0]), AgeSchema(("a", "b")))
    with pytest.raises(StandardizationError):
        expected_counts(cube, rr)


def test_group_specific_rates_from_cubes():
    ages, groups = AgeSchema(("a",)), GroupSchema(("x", "y"))
    pop = make_cube(np.full((4, 1, 2), 100.0), ages, groups)
    deaths_vals = np.zeros((4, 1, 2))
    deaths_vals[:, 0, 0] = 1.0  # 4 deaths over 400 in group x
    deaths_vals[:, 0, 1] = 2.0  # 8 deaths over 400 in group y
    deaths = pop.with_values(deaths_vals)
    rr = rates_from_cubes(deaths, pop, group_specific=True)
    assert rr.rates[0, 0] == pytest.approx(0.01)
    assert rr.rates[0, 1] == pytest.approx(0.02)
    pooled = rates_from_cubes(deaths, pop, group_specific=False)
    assert pooled.rates[0] == pytest.approx(12 / 800)


def ec(values, source="custom"):
    values = np.asarray(values, dtype=float)
    units = [f"u{i}" for i in range(values.shape[0])]
    return ExpectedCounts(units, ("x",), values.reshape(-1, 1), source)


def test_percent_error_identity_is_zero():
    truth = ec([[1.0], [2.0], [3.0]])
    pe = percent_error(truth, truth)
    assert np.allclose(pe.errors, 0.0)


def test_percent_error_minus_ten():
    pe = percent_error(ec([[9.0]]), ec([[10.0]]))
    assert pe.errors[0, 0] == pytest.approx(-10.0)


def test_percent_error_zero_truth_diverted():
    pe = percent_error(ec([[5.0], [1.0]]), ec([[0.0], [2.0]]))
    assert np.isnan(pe.errors[0, 0])
    assert pe.errors[1, 0] == pytest.approx(-50.0)


def test_percent_error_quartiles_match_sorting_oracle():
    rng = np.random.default_rng(3)
    truth_vals = rng.uniform(1, 10, 1000)
    test_vals = truth_vals * rng.uniform(0.5, 1.5, 1000)
    pe = percent_error(ec(test_vals[:, None]), ec(truth_vals[:, None]))
    errs = np.sort(100.0 * (test_vals - truth_vals) / truth_vals)
    assert pe.summary["x"]["q25"] == pytest.approx(np.percentile(errs, 25))
    assert pe.summary["x"]["median"] == pytest.approx(np.percentile(errs, 50))
    assert pe.summary["x"]["q75"] == pytest.approx(np.percentile(errs, 75))
    assert pe.summary["x"]["mean"] == pytest.approx(errs.mean())


def test_underestimation_fraction_trivials():
    truth = ec([[1.0], [2.0]])
    assert underestimation_fraction(truth, truth)["x"] == 0.0
    mixed = ec([[0.5], [3.0]])
    assert underestimation_fraction(mixed, truth)["x"] == pytest.approx(50.0)



def test_underestimation_fraction_is_nan_for_a_group_without_positive_truth():
    truth = ExpectedCounts(["a", "b"], ("x", "y"), np.array([[1.0, 0.0], [2.0, 0.0]]), "truth")
    test = ExpectedCounts(["a", "b"], ("x", "y"), np.array([[0.5, 1.0], [2.0, 0.0]]), "v19")
    under = underestimation_fraction(test, truth)
    assert under["x"] == 50.0 and math.isnan(under["y"])


def test_underestimation_alignment_required():
    a = ec([[1.0]])
    b = ExpectedCounts(["other"], ("x",), np.array([[1.0]]), "t")
    with pytest.raises(StandardizationError):
        underestimation_fraction(a, b)


def test_underestimation_symmetric_noise_near_half():
    # with uniformly large cells (clamping negligible) the mechanism's
    # symmetric noise leaves the under-estimation fraction near 50%;
    # accumulated over seeds to cover >= 1e4 cells
    from privmap.das import das_preset, run_topdown
    from privmap.simulate import synth_population, synth_deaths
    from privmap.tabulation import default_age_schema, default_group_schema

    h, _ = build_synthetic_geography(300, [2, 2, 3, 5, 5], "grid", seed=4)
    ages, groups = default_age_schema(), default_group_schema()
    pop = synth_population(
        h, ages, groups, minority_ratio=1.0, pop_scale=25000.0, minority_sigma=0.35, seed=4
    )
    assert np.all(pop.values >= 500)
    deaths = synth_deaths(pop, seed=4)
    rates = rates_from_cubes(deaths, pop, True)
    truth = expected_counts(pop, rates, "truth")
    under, total = 0, 0
    for seed in range(18):
        protected, _ = run_topdown(pop, das_preset("v19", seed=seed))
        phat = expected_counts(protected, rates, "v19")
        under += int(np.sum(phat.values < truth.values))
        total += truth.values.size
    assert total >= 10_000
    frac = 100.0 * under / total
    assert 45.0 <= frac <= 55.0


def test_minority_underestimated_more_than_majority_low_eps():
    # sparse minority cells vs large majority cells under the low-budget
    # single-pass mechanism: the minority under-estimation fraction is larger
    from privmap.das import das_preset, run_topdown
    from privmap.simulate import synth_population, synth_deaths
    from privmap.tabulation import default_age_schema, default_group_schema

    h, _ = build_synthetic_geography(300, [2, 2, 3, 5, 5], "grid", seed=11)
    ages, groups = default_age_schema(), default_group_schema()
    pop = synth_population(
        h, ages, groups, minority_ratio=12.0, pop_scale=174.0, minority_sigma=2.0, seed=11
    )
    deaths = synth_deaths(pop, seed=11)
    rates = rates_from_cubes(deaths, pop, True)
    truth = expected_counts(pop, rates, "truth")
    gaps = []
    for seed in (40, 41, 42):
        protected, _ = run_topdown(pop, das_preset("v19", seed=seed))
        under = underestimation_fraction(expected_counts(protected, rates, "v19"), truth)
        gaps.append(under["Black"] - under["NHW"])
    assert np.mean(gaps) > 0


def test_zero_count_percent():
    src = ec([[0.0], [1.0], [0.0], [2.0]])
    assert zero_count_percent(src)["x"] == pytest.approx(50.0)


def test_expected_file_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    units = [f"u{i}" for i in range(6)]
    values = rng.uniform(0, 10, (6, 2))
    obj = ExpectedCounts(units, ("NHW", "Black"), values, "truth")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_expected(obj, p1)
    back = read_expected(p1, units, ("NHW", "Black"), "truth")
    write_expected(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.values == pytest.approx(values, rel=1e-9)  # 10 significant digits


def test_totals_file_gives_the_leaf_cubes_rates(tmp_path):
    # the statewide totals geo writes stand in for both leaf cubes: the same
    # rates to the bit, pooled or per group
    ages, groups = AgeSchema(("a", "b", "c")), GroupSchema(("x", "y"))
    rng = np.random.default_rng(3)
    pop = make_cube(rng.integers(0, 10**6, size=(4, 3, 2)), ages, groups)
    deaths = pop.with_values(rng.binomial(pop.values.astype(np.int64), 0.01))
    write_totals(pop, deaths, tmp_path / "totals.csv")
    assert (tmp_path / "totals.csv").read_bytes().decode().split("\r\n")[:3] == [
        "age_band,group,measure,count",
        f"a,x,population,{int(pop.values[:, 0, 0].sum())}",
        f"a,x,deaths,{int(deaths.values[:, 0, 0].sum())}",
    ]
    pop_total, deaths_total = read_totals(tmp_path / "totals.csv", pop.hierarchy, ages, groups)
    assert pop_total.rank == deaths_total.rank == 0
    for group_specific in (True, False):
        got = rates_from_cubes(deaths_total, pop_total, group_specific).rates
        assert got.tobytes() == rates_from_cubes(deaths, pop, group_specific).rates.tobytes()
    check_totals(pop, "population.csv", pop_total, "totals.csv", per_stratum=True)
    check_totals(pop.with_values(pop.values[::-1]), "protected.csv", pop_total, "totals.csv", per_stratum=False)


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        ("-1", r"totals\.csv: negative count -1 in cell \(a, x, population\)"),
        ("1.5", r"totals\.csv: non-integral count 1\.5 in cell \(a, x, population\)"),
    ],
)
def test_totals_file_rejects_a_count_that_is_not_a_non_negative_integer(tmp_path, edit, message):
    ages, groups = AgeSchema(("a",)), GroupSchema(("x",))
    pop = make_cube(np.full((4, 1, 1), 5), ages, groups)
    path = tmp_path / "totals.csv"
    write_totals(pop, pop, path)
    path.write_bytes(path.read_bytes().replace(b"population,20", b"population," + edit.encode()))
    with pytest.raises(StandardizationError, match=message):
        read_totals(path, pop.hierarchy, ages, groups)


def test_check_totals_names_both_files():
    ages, groups = AgeSchema(("a", "b")), GroupSchema(("x",))
    pop = make_cube(np.arange(8).reshape(4, 2, 1), ages, groups)  # strata sums 12 and 16
    totals = TabulationCube(pop.hierarchy, 0, ages, groups, np.array([[[12.0], [17.0]]]))
    message = r"^pop\.csv: population 16 in \(b, x\) does not match 17 in tot\.csv$"
    with pytest.raises(StandardizationError, match=message):
        check_totals(pop, "pop.csv", totals, "tot.csv", per_stratum=True)
    message = r"^v19\.csv: total 28 does not match the population total 29 in tot\.csv$"
    with pytest.raises(StandardizationError, match=message):
        check_totals(pop, "v19.csv", totals, "tot.csv", per_stratum=False)
    # a protected cube moves people between strata but keeps the grand total
    moved = pop.with_values(pop.values + np.array([[[1.0], [-1.0]]]) * (np.arange(4) == 0)[:, None, None])
    check_totals(moved, "v19.csv", aggregate(pop, 0), "tot.csv", per_stratum=False)
    with pytest.raises(StandardizationError, match=r"population 13 in \(a, x\) does not match 12"):
        check_totals(moved, "pop.csv", aggregate(pop, 0), "tot.csv", per_stratum=True)
