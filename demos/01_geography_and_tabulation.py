"""Build a synthetic nested geography and a stratified population cube.

The hierarchy is the tree the protection mechanism walks (root down to the
analysis units); the rook-grid adjacency over the leaves is the graph the
spatial model uses. Population counts live in a dense (unit, age band,
group) cube that aggregates exactly up the tree.
"""

import numpy as np

from privmap import build_synthetic_geography
from privmap.tabulation import aggregate, default_age_schema, default_group_schema, unit_totals
from privmap.simulate import synth_population

h, adj = build_synthetic_geography(n_leaves=300, branching=[2, 2, 3, 5, 5], layout="grid", seed=7)
print(f"hierarchy: depth {h.depth}, levels {h.level_names}")
print(f"leaves: {len(h.leaf_ids)}; root: {h.units_at(0)[0]}")
print(f"adjacency: {len(adj.edges())} edges; degree range {adj.row_sums.min():.0f}-{adj.row_sums.max():.0f}")
print(f"adjacency connected: {adj.is_connected()}")

ages, groups = default_age_schema(), default_group_schema()
pop = synth_population(h, ages, groups, minority_ratio=12.0, pop_scale=174.0, seed=7)
print(f"\npopulation cube: {pop.values.shape} cells, total {pop.total:,.0f}")
per_group = pop.values.sum(axis=(0, 1))
for g, label in enumerate(groups.groups):
    print(f"  {label}: statewide {per_group[g]:,.0f}")

county = aggregate(pop, 1)
print(f"\naggregated to rank 1: {len(county.unit_ids)} units, total {county.total:,.0f} (exactly preserved)")
totals = unit_totals(pop)
print(f"unit total populations: median {np.median(totals):,.0f}")
print(f"summed over both axes, one total per unit: {totals.shape}")
