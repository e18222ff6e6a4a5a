"""Graph store: indexing, pattern matching, statistics, mutation."""

import pytest

from repro.exceptions import SciSparqlError
from repro.rdf import Graph, Dataset, URI, BlankNode, Literal
from repro.arrays import NumericArray

EX = "http://example.org/"


def uri(name):
    return URI(EX + name)


@pytest.fixture
def graph():
    g = Graph()
    g.add(uri("a"), uri("knows"), uri("b"))
    g.add(uri("a"), uri("knows"), uri("c"))
    g.add(uri("b"), uri("knows"), uri("c"))
    g.add(uri("a"), uri("name"), Literal("Alice"))
    g.add(uri("b"), uri("name"), Literal("Bob"))
    return g


class TestBasicOps:
    def test_len(self, graph):
        assert len(graph) == 5

    def test_duplicate_insert_ignored(self, graph):
        graph.add(uri("a"), uri("knows"), uri("b"))
        assert len(graph) == 5

    def test_contains(self, graph):
        assert (uri("a"), uri("knows"), uri("b")) in graph
        assert (uri("c"), uri("knows"), uri("b")) not in graph

    def test_remove(self, graph):
        assert graph.remove(uri("a"), uri("knows"), uri("b"))
        assert len(graph) == 4
        assert not graph.remove(uri("a"), uri("knows"), uri("b"))

    def test_remove_cleans_indexes(self, graph):
        graph.remove(uri("b"), uri("name"), Literal("Bob"))
        assert list(graph.triples(None, uri("name"), Literal("Bob"))) == []
        assert list(graph.triples(uri("b"), uri("name"), None)) == []

    def test_remove_matching(self, graph):
        removed = graph.remove_matching(uri("a"), None, None)
        assert removed == 3
        assert len(graph) == 2

    def test_remove_while_iterating_empties_graph(self, graph):
        # iteration reads the version current when it began, so the
        # removes are invisible to it and no triple is skipped
        for triple in graph.triples():
            graph.remove(*triple)
        assert len(graph) == 0
        assert list(graph.triples()) == []

    def test_remove_while_iterating_across_consolidations(self):
        # enough rows that the base is sorted and the removes merge
        # into fresh indexes mid-iteration
        graph = Graph()
        for i in range(3000):
            graph.add(uri("s%d" % (i % 50)), uri("p"), Literal(i))
        flushes = graph.index_stats()["flushes"]
        for triple in graph.triples(None, uri("p")):
            graph.remove(*triple)
        assert graph.index_stats()["flushes"] > flushes
        assert len(graph) == 0
        assert graph.count(None, uri("p")) == 0

    def test_clear(self, graph):
        graph.clear()
        assert len(graph) == 0
        assert list(graph.triples()) == []

    def test_copy_independent(self, graph):
        clone = graph.copy()
        clone.add(uri("x"), uri("p"), Literal(1))
        assert len(graph) == 5
        assert len(clone) == 6


class TestPatternMatching:
    def test_fully_bound(self, graph):
        matches = list(graph.triples(uri("a"), uri("knows"), uri("b")))
        assert len(matches) == 1

    def test_subject_bound(self, graph):
        assert len(list(graph.triples(uri("a")))) == 3

    def test_predicate_bound(self, graph):
        assert len(list(graph.triples(None, uri("knows"), None))) == 3

    def test_value_bound(self, graph):
        assert len(list(graph.triples(None, None, uri("c")))) == 2

    def test_subject_predicate(self, graph):
        assert len(list(graph.triples(uri("a"), uri("knows")))) == 2

    def test_predicate_value(self, graph):
        matches = list(graph.triples(None, uri("knows"), uri("c")))
        assert {t.subject for t in matches} == {uri("a"), uri("b")}

    def test_subject_value(self, graph):
        matches = list(graph.triples(uri("a"), None, uri("b")))
        assert [t.property for t in matches] == [uri("knows")]

    def test_no_match_returns_empty(self, graph):
        assert list(graph.triples(uri("zzz"))) == []

    def test_full_scan(self, graph):
        assert len(list(graph.triples())) == 5

    def test_count(self, graph):
        assert graph.count() == 5
        assert graph.count(None, uri("knows"), None) == 3
        assert graph.count(uri("a"), uri("knows"), None) == 2


class TestAccessors:
    def test_subjects(self, graph):
        assert set(graph.subjects(uri("name"))) == {uri("a"), uri("b")}

    def test_values(self, graph):
        assert set(graph.values(uri("a"), uri("knows"))) == {
            uri("b"), uri("c")
        }

    def test_value_single(self, graph):
        assert graph.value(uri("a"), uri("name")) == Literal("Alice")
        assert graph.value(uri("zzz"), uri("name"), "dflt") == "dflt"

    def test_properties(self, graph):
        assert set(graph.properties(uri("a"))) == {
            uri("knows"), uri("name")
        }


class TestValidation:
    def test_literal_subject_rejected(self):
        with pytest.raises(SciSparqlError):
            Graph().add(Literal(1), uri("p"), Literal(2))

    def test_non_uri_predicate_rejected(self):
        with pytest.raises(SciSparqlError):
            Graph().add(uri("s"), BlankNode(), Literal(2))

    def test_random_object_rejected(self):
        with pytest.raises(SciSparqlError):
            Graph().add(uri("s"), uri("p"), object())

    def test_array_value_allowed(self):
        g = Graph()
        g.add(uri("s"), uri("p"), NumericArray([1, 2, 3]))
        assert len(g) == 1


class TestStatistics:
    def test_triple_count(self, graph):
        assert graph.statistics.triple_count == 5

    def test_property_count(self, graph):
        assert graph.statistics.property_count(uri("knows")) == 3
        assert graph.statistics.property_count(uri("nope")) == 0

    def test_distinct_subjects(self, graph):
        assert graph.statistics.distinct_subjects(uri("knows")) == 2
        assert graph.statistics.distinct_subjects() == 2

    def test_distinct_values(self, graph):
        assert graph.statistics.distinct_values(uri("knows")) == 2

    def test_fanout(self, graph):
        assert graph.statistics.fanout(uri("knows")) == pytest.approx(1.5)

    def test_fanin(self, graph):
        assert graph.statistics.fanin(uri("knows")) == pytest.approx(1.5)

    def test_fanout_unknown_property(self, graph):
        assert graph.statistics.fanout(uri("nope")) == 1.0


class TestArrayValues:
    def test_array_equality_matching(self):
        g = Graph()
        g.add(uri("s"), uri("p"), NumericArray([[1, 2], [3, 4]]))
        matches = list(
            g.triples(None, None, NumericArray([[1, 2], [3, 4]]))
        )
        assert len(matches) == 1

    def test_different_arrays_distinct(self):
        g = Graph()
        g.add(uri("s"), uri("p"), NumericArray([1]))
        g.add(uri("s"), uri("p"), NumericArray([2]))
        assert len(g) == 2


class TestDataset:
    def test_default_graph(self):
        ds = Dataset()
        assert ds.graph(None) is ds.default_graph

    def test_named_graph_created_on_demand(self):
        ds = Dataset()
        g = ds.graph(uri("g1"))
        assert ds.graph(uri("g1")) is g

    def test_graph_no_create(self):
        ds = Dataset()
        assert ds.graph(uri("g1"), create=False) is None

    def test_drop(self):
        ds = Dataset()
        ds.graph(uri("g1")).add(uri("s"), uri("p"), Literal(1))
        assert ds.drop(uri("g1"))
        assert not ds.drop(uri("g1"))

    def test_union_triples(self):
        ds = Dataset()
        ds.default_graph.add(uri("s"), uri("p"), Literal(1))
        ds.graph(uri("g")).add(uri("s"), uri("p"), Literal(2))
        assert len(list(ds.union_triples(uri("s")))) == 2
        assert len(ds) == 2

    def test_string_name_coerced(self):
        ds = Dataset()
        g = ds.graph(EX + "g1")
        assert ds.graph(URI(EX + "g1")) is g


def test_to_ntriples_roundtrippable(graph):
    text = graph.to_ntriples()
    assert text.count(" .") == 5
    assert "<%sknows>" % EX in text
