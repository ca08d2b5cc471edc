"""Every test starts with empty graph caches.

`graphs` caches its bitmask view, subcurve table, chain records, chain
queries and stability flags per graph, and equal graphs share an entry; so
a test that counts calls or cache hits would otherwise depend on which
tests ran before it.
"""

import pytest

from gitcurves import graphs


@pytest.fixture(autouse=True)
def empty_graph_caches():
    for cached in (
        graphs._graph_data,
        graphs._subcurves,
        graphs._find_chains,
        graphs._has_chain,
        graphs.classify,
    ):
        cached.cache_clear()
