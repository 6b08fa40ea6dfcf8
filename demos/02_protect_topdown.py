"""Apply the top-down disclosure avoidance mechanism and inspect its output.

Three presets are compared: the low-budget single-pass variant (v19), the
same budget with multi-pass post-processing (v20), and the high-budget
multi-pass variant (v22). Every output is a non-negative integer cube whose
parents equal the sums of their children and whose grand total is exact.
"""

import numpy as np

from privmap import build_synthetic_geography
from privmap.das import das_preset, run_topdown
from privmap.simulate import synth_population
from privmap.tabulation import aggregate, default_age_schema, default_group_schema

h, _ = build_synthetic_geography(300, [2, 2, 3, 5, 5], "grid", seed=7)
ages, groups = default_age_schema(), default_group_schema()
pop = synth_population(h, ages, groups, minority_ratio=12.0, pop_scale=174.0, seed=7)

print(f"true cube total {pop.total:,.0f}")
for variant in ("v19", "v20", "v22"):
    cfg = das_preset(variant, seed=8)
    protected, audit = run_topdown(pop, cfg)

    err = protected.values - pop.values
    consistent = all(
        np.array_equal(aggregate(protected, r).values, audit.published[r].values)
        for r in range(h.depth - 1)
    )
    eps_leaf = audit.epsilons[(h.depth - 1, "detail")]
    print(
        f"\n{variant}: eps_total {cfg.epsilon_total}, "
        f"leaf detail eps {eps_leaf:.3f}, "
        f"{'multi-pass' if cfg.multi_pass else 'single-pass'}"
    )
    print(f"  root total exact: {protected.total == pop.total}; hierarchy consistent: {consistent}")
    print(f"  mean |cell error| {np.abs(err).mean():.3f}, max |cell error| {np.abs(err).max():.0f}")
    for g, label in enumerate(groups.groups):
        ge = err[:, :, g]
        print(f"    {label:>6}: mean abs err {np.abs(ge).mean():.3f}")
