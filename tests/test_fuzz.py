"""Fuzzed curve-graph documents through the command line.

Each example takes a fixture, drops keys or list entries and replaces nodes
of its JSON tree by strings, floats, lists, nulls, booleans or negative
integers, then runs the graph commands on it.  Every run must end with exit
code 0 or 2; any exception escaping `cli.main` fails the test.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gitcurves.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DOCS = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
COMMANDS = [
    ["classify", "--json", "--in"],
    ["closed-orbit", "--mode", "c", "--in"],
    ["replacements", "--in"],
]

SCALARS = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.none(), st.booleans())
REPLACEMENTS = st.one_of(
    st.text(max_size=4),
    st.floats(),
    st.lists(SCALARS, max_size=3),
    st.none(),
    st.booleans(),
    st.integers(max_value=-1),
)


def _paths(node, prefix=()):
    """Paths to every node of a JSON tree below the root."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_docs(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCS))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(REPLACEMENTS)
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_docs())
def test_mutated_graph_documents_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(command + [str(path)])
            assert code in (0, 2), (command, sink.getvalue())
