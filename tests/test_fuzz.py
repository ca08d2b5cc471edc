"""Fuzzed curve-graph and configuration documents through the command line.

Each example takes a fixture graph or a `family ... --json` configuration,
drops keys or list entries, renames keys and replaces nodes of its JSON tree
by strings, floats, lists, nulls, booleans or negative integers, then runs
the commands that read such documents on it.  Every run must end with exit
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
from gitcurves.families import (
    build_broken_bead_config,
    build_closed_rosary_config,
    build_open_rosary_config,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GRAPH_DOCS = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
GRAPH_COMMANDS = [
    ["classify", "--json", "--in"],
    ["closed-orbit", "--mode", "c", "--in"],
    ["replacements", "--in"],
]
CONFIG_DOCS = [
    json.loads(json.dumps(cfg.to_dict()))
    for cfg in (
        build_open_rosary_config(5, 2),
        build_closed_rosary_config(4),
        build_broken_bead_config(3),
    )
]
CONFIG_COMMANDS = [
    ["index", "--m", "2", "--in"],
    ["basin", "--in"],
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
def mutated_docs(draw, docs):
    doc = json.loads(json.dumps(draw(st.sampled_from(docs))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["delete", "replace", "rename"]))
        if action == "delete":
            del parent[key]
        elif action == "rename" and isinstance(parent, dict):
            name = draw(st.one_of(st.just(key[:-1]), st.just(key + "s"), st.text(max_size=4)))
            parent[name] = parent.pop(key)
        else:
            parent[key] = draw(REPLACEMENTS)
    return doc


def _assert_clean_exits(doc, commands):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        for command in commands:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(command + [str(path)])
            assert code in (0, 2), (command, sink.getvalue())


@settings(max_examples=300, deadline=None)
@given(mutated_docs(GRAPH_DOCS))
def test_mutated_graph_documents_exit_cleanly(doc):
    _assert_clean_exits(doc, GRAPH_COMMANDS)


@settings(max_examples=300, deadline=None)
@given(mutated_docs(CONFIG_DOCS))
def test_mutated_configuration_documents_exit_cleanly(doc):
    _assert_clean_exits(doc, CONFIG_COMMANDS)
