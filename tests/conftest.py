"""Every test starts with empty graph caches.

`graphs` keeps one cached record per graph (its bitmask view, subcurve
table, chain block index, stability flags and chain records), and equal
graphs share an entry; so a test that counts calls or builds would otherwise
depend on which tests ran before it.  Every cache in the module is cleared,
so one added later is cleared too.
"""

import pytest

from gitcurves import graphs


@pytest.fixture(autouse=True)
def empty_graph_caches():
    for value in vars(graphs).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
