import numpy as np
import pytest

from privmap.geo import LAYOUTS, Adjacency, build_synthetic_geography

ORACLE_BRANCHING = {300: [2, 3, 5, 10], 3000: [3, 10, 10, 10]}
ORACLE_GRAPHS = [f"{layout}-{n}" for n in ORACLE_BRANCHING for layout in LAYOUTS]
ORACLE_GRAPHS += ["permuted-dense", "permuted-sparse"]


@pytest.fixture(params=ORACLE_GRAPHS)
def oracle_adjacency(request) -> Adjacency:
    """Grid and planar graphs at two sizes, and one with its leaves renumbered
    at random (neighbors no longer at nearby indices), built from dense and
    from sparse weights; checked against dense reference implementations."""
    if not request.param.startswith("permuted"):
        layout, n = request.param.rsplit("-", 1)
        return build_synthetic_geography(int(n), ORACLE_BRANCHING[int(n)], layout, seed=11)[1]
    _, adj = build_synthetic_geography(300, ORACLE_BRANCHING[300], "random-planar", seed=11)
    perm = np.random.default_rng(3).permutation(adj.n)
    w = adj.weights.toarray() if request.param == "permuted-dense" else adj.weights
    return Adjacency([adj.leaf_ids[p] for p in perm], w[perm][:, perm])
