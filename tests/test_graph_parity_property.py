"""Property: every triple-store implementation is observably identical.

The same random sequence of add/remove operations, reads interleaved
with them, and pattern queries must give identical observable state on
all implementations — the contract that lets the engine run unchanged
over any store:

- ``SqlTripleGraph`` (relational back-end) versus the in-memory graph;
- the dictionary-encoded, permutation-indexed :class:`Graph` versus the
  legacy :class:`HashIndexGraph` it replaced;
- the engine's ID-space BGP fast path versus the per-row interpreter,
  over the same graphs and queries.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import SSDM
from repro.engine import idjoin
from repro.rdf import Graph, HashIndexGraph, Literal, URI
from repro.storage import SqlTripleGraph

operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "read"]),
        st.integers(0, 3),               # subject
        st.integers(0, 2),               # predicate
        st.one_of(
            st.integers(0, 3),           # numeric literal
            st.sampled_from(["x", "y"]),
        ),
    ),
    max_size=30,
)


def term(o):
    return Literal(o)


def subject(i):
    return URI("http://e/s%d" % i)


def predicate(i):
    return URI("http://e/p%d" % i)


def assert_reads_agree(graph, oracle, triple):
    """Reads mid-sequence match the oracle: a version cached before a
    mutation is never served after it."""
    s, p, _ = triple
    assert len(graph) == len(oracle)
    assert (triple in graph) == (triple in oracle)
    assert graph.count(s, p, None) == oracle.count(s, p, None)
    assert {(t.property, t.value) for t in graph.triples(s)} == \
        {(t.property, t.value) for t in oracle.triples(s)}


@given(operations)
@settings(max_examples=60, deadline=None)
def test_same_observable_state(ops):
    memory = Graph()
    relational = SqlTripleGraph()
    for action, s, p, o in ops:
        triple = (subject(s), predicate(p), term(o))
        if action == "add":
            memory.add(*triple)
            relational.add(*triple)
        elif action == "remove":
            assert memory.remove(*triple) == relational.remove(*triple)
        else:
            assert_reads_agree(memory, relational, triple)
    assert len(memory) == len(relational)
    memory_set = {
        (t.subject, t.property, t.value) for t in memory.triples()
    }
    relational_set = {
        (t.subject, t.property, t.value) for t in relational.triples()
    }
    assert memory_set == relational_set
    # pattern queries agree on every bound combination
    for s in range(4):
        assert (
            {(t.property, t.value) for t in memory.triples(subject(s))}
            == {(t.property, t.value)
                for t in relational.triples(subject(s))}
        )
    for p in range(3):
        assert memory.statistics.property_count(predicate(p)) == \
            relational.statistics.property_count(predicate(p))
        assert memory.statistics.distinct_subjects(predicate(p)) == \
            relational.statistics.distinct_subjects(predicate(p))
    relational.close()


# -- ID-space graph vs legacy hash-index graph ---------------------------------------


def all_terms():
    return (
        [subject(i) for i in range(4)]
        + [predicate(i) for i in range(3)]
        + [term(o) for o in (0, 1, 2, 3, "x", "y")]
    )


@given(operations)
@settings(max_examples=80, deadline=None)
def test_id_graph_matches_hash_index_graph(ops):
    """Interleaved add/remove: the sorted-permutation-index graph and
    the legacy hash-index graph expose identical observable state —
    membership, every bound-combination pattern scan, exact pattern
    counts, and the statistics the cost model reads."""
    indexed = Graph()
    legacy = HashIndexGraph()
    for action, s, p, o in ops:
        triple = (subject(s), predicate(p), term(o))
        if action == "add":
            indexed.add(*triple)
            legacy.add(*triple)
        elif action == "remove":
            assert indexed.remove(*triple) == legacy.remove(*triple)
        else:
            assert_reads_agree(indexed, legacy, triple)
    assert len(indexed) == len(legacy)
    subjects = [None] + [subject(i) for i in range(4)]
    predicates = [None] + [predicate(i) for i in range(3)]
    values = [None, term(0), term("x")]
    for s in subjects:
        for p in predicates:
            for v in values:
                got = {
                    (t.subject, t.property, t.value)
                    for t in indexed.triples(s, p, v)
                }
                want = {
                    (t.subject, t.property, t.value)
                    for t in legacy.triples(s, p, v)
                }
                assert got == want, (s, p, v)
                assert indexed.count(s, p, v) == legacy.count(s, p, v)
                assert indexed.pattern_count(s, p, v) == len(want)
    for p in range(3):
        prop = predicate(p)
        for stat in ("property_count", "distinct_subjects",
                     "distinct_values", "fanout", "fanin"):
            assert getattr(indexed.statistics, stat)(prop) == \
                getattr(legacy.statistics, stat)(prop), (stat, prop)
    assert indexed.statistics.triple_count == \
        legacy.statistics.triple_count
    assert indexed.statistics.distinct_subjects() == \
        legacy.statistics.distinct_subjects()


# -- engine fast path vs per-row interpreter -----------------------------------------


PARITY_QUERIES = [
    # chain join
    "SELECT ?a ?b ?c WHERE { ?a ex:p0 ?b . ?b ex:p1 ?c }",
    # star with projection subset
    "SELECT ?v WHERE { ?s ex:p0 ?v . ?s ex:p1 ?w }",
    # ground components and a shared subject
    "SELECT ?s WHERE { ?s ex:p0 1 . ?s ex:p1 ?x }",
    # repeated variable inside one pattern (diagonal selection)
    "SELECT ?x WHERE { ?x ex:p2 ?x }",
    # cartesian of two disconnected patterns
    "SELECT ?a ?b WHERE { ?a ex:p0 0 . ?b ex:p1 1 }",
    # unbound predicate + DISTINCT keeps the full-width decode
    "SELECT DISTINCT ?p WHERE { ex:s0 ?p ?o }",
]


@given(operations)
@settings(max_examples=40, deadline=None)
def test_engine_fast_path_matches_interpreter(ops):
    """The ID-space BGP matcher and the per-row interpreter return the
    same multiset of solutions for the same graph and query."""
    ssdm = SSDM()
    ssdm.prefix("ex", "http://e/")
    graph = ssdm.graph
    # self-loop triples make the repeated-variable query non-trivial
    graph.add(subject(0), predicate(2), subject(0))
    for action, s, p, o in ops:
        triple = (subject(s), predicate(p), term(o))
        if action == "add":
            graph.add(*triple)
        elif action == "remove":
            graph.remove(*triple)
        else:
            # caches a frozen version the next mutation must supersede
            len(graph)
    for query in PARITY_QUERIES:
        before = idjoin.counters["solve"]
        # terms have no ordering; compare as sorted repr multisets
        fast = sorted(repr(row) for row in ssdm.execute(query).rows)
        assert idjoin.counters["solve"] > before, \
            "fast path did not run for %r" % query
        idjoin.set_enabled(False)
        try:
            slow = sorted(
                repr(row) for row in ssdm.execute(query).rows
            )
        finally:
            idjoin.set_enabled(True)
        assert fast == slow, query
