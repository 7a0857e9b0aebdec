"""Property tests on the three file parsers: graph, clustering and spec.

Each generated JSON document has the keys its parser reads, but any value
may be hostile (a bool, a float where an id belongs, an int too large for a
float, NaN or infinity, a string, a nested list or object), and any key may
be misspelled or missing. A parser either returns or raises an
AntclustError; any other exception is a bug.
"""

import json
import warnings

import pytest
from hypothesis import given, strategies as st

from antclust.clustering import ROLES, load_clustering
from antclust.errors import AntclustError
from antclust.experiments import ALGORITHMS, load_spec
from antclust.geomgraph import load

scalar = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([10**400, -10**400, 2**63, 2**1024]),
    st.floats(), st.floats(-3.0, 3.0), st.text(max_size=4),
)
hostile = st.recursive(scalar, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)), max_leaves=6)
coordinate = st.floats(-10.0, 110.0)
node_id = st.integers(0, 5)


@st.composite
def documents(draw, fields):
    """An object with the keys of ``fields``, each holding a value drawn from
    its plausible strategy, except that up to three keys are spoiled: the key
    is misspelled or missing, or its value is hostile."""
    spoiled = draw(st.sets(st.sampled_from(sorted(fields)), max_size=3))
    doc = {}
    for key, plausible in fields.items():
        spelling, value = key, plausible
        if key in spoiled:
            spelling = draw(st.sampled_from([key, key.upper(), key + "s", None]))
            value = hostile if spelling == key else plausible
        if spelling is not None:
            doc[spelling] = draw(value)
    return doc


# nodes with the ids 0..k-1, so that a file often builds, or with ids drawn at random
numbered_nodes = st.integers(1, 6).flatmap(lambda k: st.tuples(*[
    documents({"id": st.just(i), "x": coordinate, "y": coordinate}) for i in range(k)
]).map(list))
graphs = documents({
    "area_side": st.floats(1.0, 100.0), "range": st.floats(0.5, 150.0),
    "nodes": st.one_of(numbered_nodes, st.lists(documents({"id": node_id, "x": coordinate, "y": coordinate}),
                                                max_size=4)),
})
clusterings = documents({
    "heads": st.lists(node_id, max_size=4),
    "assignment": st.dictionaries(node_id.map(str), node_id, max_size=4),
    "roles": st.dictionaries(node_id.map(str), st.sampled_from(ROLES), max_size=4),
    "hops": st.integers(1, 3),
})
# node id keys, now and then spelled in a way str() does not spell them
wca_map = st.dictionaries(st.one_of(node_id.map(str), node_id.map(str), st.sampled_from(["-0", " 1", "+2", "1.0"])),
                          st.floats(0.0, 5.0), max_size=3)
specs = documents({
    "node_counts": st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True),
    "ranges": st.lists(st.floats(1.0, 300.0), min_size=1, max_size=3, unique=True),
    "area_side": st.floats(1.0, 300.0),
    "seeds": st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True),
    "algorithms": st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=3, unique=True),
    "aco": documents({"alpha": st.floats(0.5, 10.0), "beta": st.floats(0.0, 10.0), "ants": st.integers(1, 5),
                      "evaporation_rate": st.floats(0.0, 0.9), "iterations": st.integers(1, 5)}),
    "wca": documents({"w1": st.just(0.7), "w2": st.just(0.2), "w3": st.just(0.05), "w4": st.just(0.05),
                      "ideal_degree": st.floats(0.0, 10.0), "mobility": wca_map, "head_tenure": wca_map}),
    "kconid_k": st.integers(1, 3),
})


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("parsers") / "doc.json"


def parse(parser, doc, path):
    """Write ``doc`` as JSON (NaN and infinity as JSON's usual extensions)
    and parse it; an AntclustError counts as a refusal."""
    path.write_text(json.dumps(doc))
    try:
        parser(path)
    except AntclustError:
        pass


@given(graphs)
def test_graph_loader_returns_or_refuses(doc_path, doc):
    # load warns about nodes outside the area and the suite turns warnings
    # into errors, so record warnings here and allow only that one
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse(load, doc, doc_path)
    assert all(w.category is UserWarning and "outside" in str(w.message) for w in caught), \
        [str(w.message) for w in caught]


@given(clusterings)
def test_clustering_loader_returns_or_refuses(doc_path, doc):
    parse(load_clustering, doc, doc_path)


@given(specs)
def test_spec_loader_returns_or_refuses(doc_path, doc):
    parse(load_spec, doc, doc_path)
