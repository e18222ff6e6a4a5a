"""The SP²Bench-style dataset, query mix and note stream.

The generator and the 12-query mix are a frozen copy of
``benchmarks/macro`` (generator version 1).  The benchmark keeps its own
copy so that a change claiming a gain cannot also change the data or
the mix it is measured on.

Everything here is a pure function of ``(scale, seed)``: the same seed
gives byte-identical ``INSERT DATA`` text, query sequences and expected
answers.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import NamedTuple

BENCH = "http://sp2b.example.org/bench/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
DC_TITLE = "http://purl.org/dc/elements/1.1/title"
DC_CREATOR = "http://purl.org/dc/elements/1.1/creator"
DCT_ISSUED = "http://purl.org/dc/terms/issued"
DCT_REFERENCES = "http://purl.org/dc/terms/references"
FOAF_NAME = "http://xmlns.com/foaf/0.1/name"
RDFS_SEEALSO = "http://www.w3.org/2000/01/rdf-schema#seeAlso"

CLASS_ARTICLE = BENCH + "Article"
CLASS_JOURNAL = BENCH + "Journal"
CLASS_PERSON = BENCH + "Person"
P_JOURNAL = BENCH + "journal"
P_ABSTRACT = BENCH + "abstract"
P_DATA = BENCH + "data"

YEAR_LO, YEAR_HI = 1990, 2015

#: Triples per bulk-load ``INSERT DATA`` statement.
BULK_BATCH = 800


@dataclass(frozen=True)
class Scale:
    name: str
    articles: int
    persons: int
    journals: int
    #: every Nth article carries a small bench:data array
    array_every: int = 10
    array_shape: tuple = (8, 8)


#: The loaded graph is generated at this seed whatever the run's seed,
#: which drives the request order and the notes written.  The
#: scale-free generator makes query costs depend strongly on the graph
#: (hub papers lengthen citation chains), so graphs drawn from different
#: seeds would differ in cost by more than any bound a regression check
#: could use.
GRAPH_SEED = 42

#: ``bench`` (7,188 triples) is about a sixth of the macro runner's
#: ``smoke`` scale.  Over the wire at ``smoke`` the mix serves ~40
#: queries/s, so the >=1,000 reads a p99 needs would take a minute at
#: 40% of capacity; at ``bench`` it serves ~180/s and they take 15 s.
SCALES = {
    "tiny": Scale("tiny", articles=120, persons=60, journals=5),
    "bench": Scale("bench", articles=700, persons=213, journals=25),
}


def journal_uri(index):
    return "%sjournal/J%d" % (BENCH, index)


def article_uri(index):
    return "%sarticle/A%d" % (BENCH, index)


def person_uri(index):
    return "%sperson/P%d" % (BENCH, index)


def _escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _uri(value):
    return "<%s>" % value


def _line(subject, predicate, obj):
    return "%s %s %s ." % (_uri(subject), _uri(predicate), obj)


def _array_literal(rng, shape, low=0, high=99):
    rows = []
    for _ in range(shape[0]):
        rows.append("(%s)" % " ".join(
            str(rng.randint(low, high)) for _ in range(shape[1])
        ))
    return "(%s)" % " ".join(rows)


def lines(scale, seed):
    """The dataset as triple statements, one per line."""
    if isinstance(scale, str):
        scale = SCALES[scale]
    rng = random.Random(seed)

    for j in range(1, scale.journals + 1):
        journal = journal_uri(j)
        yield _line(journal, RDF_TYPE, _uri(CLASS_JOURNAL))
        yield _line(journal, DC_TITLE,
                    '"Journal %d of applied measurement"' % j)
        yield _line(journal, DCT_ISSUED, str(rng.randint(YEAR_LO, YEAR_HI)))

    for p in range(1, scale.persons + 1):
        person = person_uri(p)
        yield _line(person, RDF_TYPE, _uri(CLASS_PERSON))
        yield _line(person, FOAF_NAME, '"Author %d"' % p)

    # Zipf-ish journal popularity: weight 1/k for the k-th journal
    journal_ids = list(range(1, scale.journals + 1))
    journal_weights = [1.0 / k for k in journal_ids]

    author_pool = []        # one entry per past authorship
    citation_pool = []      # one entry per past citation + per article

    for a in range(1, scale.articles + 1):
        article = article_uri(a)
        year = rng.randint(YEAR_LO, YEAR_HI)
        yield _line(article, RDF_TYPE, _uri(CLASS_ARTICLE))
        yield _line(article, DC_TITLE,
                    '"Article %d on phenomenon %d"' % (a, rng.randint(1, 500)))
        yield _line(article, DCT_ISSUED, str(year))
        journal = rng.choices(journal_ids, weights=journal_weights)[0]
        yield _line(article, P_JOURNAL, _uri(journal_uri(journal)))

        authors = set()
        for _ in range(rng.choice((1, 1, 2, 2, 3, 4))):
            if author_pool and rng.random() < 0.6:
                author = rng.choice(author_pool)
            else:
                author = rng.randint(1, scale.persons)
            if author in authors:
                continue
            authors.add(author)
            author_pool.append(author)
            yield _line(article, DC_CREATOR, _uri(person_uri(author)))

        cited = set()
        for _ in range(min(rng.choice((0, 1, 2, 3, 3, 4, 5)), a - 1)):
            if citation_pool and rng.random() < 0.5:
                target = rng.choice(citation_pool)
            else:
                target = rng.randint(1, a - 1)
            if target in cited or target >= a:
                continue
            cited.add(target)
            citation_pool.append(target)
            yield _line(article, DCT_REFERENCES, _uri(article_uri(target)))
        citation_pool.append(a)

        if rng.random() < 0.3:
            yield _line(article, RDFS_SEEALSO,
                        _uri("http://example.org/see/A%d" % a))
        if rng.random() < 0.6:
            yield _line(article, P_ABSTRACT,
                        '"%s"' % _escape(
                            "Abstract of article %d: findings on series %d."
                            % (a, rng.randint(1, 999))
                        ))
        if a % scale.array_every == 0:
            yield _line(article, P_DATA,
                        _array_literal(rng, scale.array_shape))


def insert_batches(scale, seed, batch_size=BULK_BATCH):
    """``(statement, triples)`` pairs of ``batch_size`` triples each."""
    batch = []
    for statement in lines(scale, seed):
        batch.append(statement)
        if len(batch) >= batch_size:
            yield "INSERT DATA {\n%s\n}" % "\n".join(batch), len(batch)
            batch = []
    if batch:
        yield "INSERT DATA {\n%s\n}" % "\n".join(batch), len(batch)


# -- the note stream ---------------------------------------------------------------


P_NOTE = BENCH + "note"
P_REMARK = BENCH + "remark"
#: fields of a note after its link and remark
NOTE_FIELDS = 8


class Note(NamedTuple):
    """One ``INSERT DATA`` statement adding a review note to an article."""

    text: str
    triples: int
    #: the note's URI, and the (predicate, object token) set it was given
    subject: str
    facts: frozenset


def note_uri(number):
    return "%snote/N%d" % (BENCH, number)


def notes(scale, seed):
    """Endless stream of :class:`Note` statements: a 10-triple review
    note linked from a random loaded article.

    No query of the mix reads a note's predicates, so the mix's answers
    stay those of the loaded graph however many notes were written.
    """
    if isinstance(scale, str):
        scale = SCALES[scale]
    rng = random.Random("notes:%d" % seed)
    number = 0
    while True:
        number += 1
        subject = note_uri(number)
        facts = [(P_REMARK, '"review %d of %d"'
                  % (number, rng.randint(1, 500)))]
        facts += [("%sfield%d" % (BENCH, field), str(rng.randrange(100000)))
                  for field in range(NOTE_FIELDS)]
        statement_lines = [_line(
            article_uri(rng.randint(1, scale.articles)), P_NOTE,
            _uri(subject))]
        statement_lines += [_line(subject, p, o) for p, o in facts]
        yield Note("INSERT DATA {\n%s\n}" % "\n".join(statement_lines),
                   len(statement_lines), subject, frozenset(facts))


def point_read(subject):
    """The point read of one subject's predicates and objects."""
    return "SELECT ?p ?o WHERE { <%s> ?p ?o }" % subject


def token(value):
    """The generator's object token for one decoded result value."""
    from repro.rdf.term import URI

    if isinstance(value, URI):
        return _uri(value.value)
    if isinstance(value, bool):
        raise TypeError("unexpected boolean %r" % (value,))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return '"%s"' % _escape(value)
    raise TypeError("unexpected value %r" % (value,))


def point_read_facts(result):
    """The ``(predicate, object token)`` set a point read returned."""
    return frozenset((p.value, token(o)) for p, o in result.rows)


# -- the query mix ---------------------------------------------------------------

PREFIXES = (
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
    "PREFIX dc: <http://purl.org/dc/elements/1.1/> "
    "PREFIX dcterms: <http://purl.org/dc/terms/> "
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "PREFIX bench: <http://sp2b.example.org/bench/> "
)

#: (name, SP²Bench/SciSPARQL shape, body); the name prefix ``qNN`` names
#: the per-query latency metric.
QUERIES = [
    ("q01", "star",
     "SELECT ?j ?title ?yr WHERE { "
     "?j rdf:type bench:Journal . ?j dc:title ?title . "
     "?j dcterms:issued ?yr }"),
    ("q02", "star+optional",
     "SELECT ?a ?title ?journal ?abs WHERE { "
     "?a rdf:type bench:Article . ?a dcterms:issued 2001 . "
     "?a dc:title ?title . ?a bench:journal ?journal . "
     "OPTIONAL { ?a bench:abstract ?abs } }"),
    ("q03", "chain",
     "SELECT ?a ?c WHERE { "
     "?a dcterms:issued 2005 . ?a dcterms:references ?b . "
     "?b dcterms:references ?c }"),
    ("q04", "chain+distinct",
     "SELECT DISTINCT ?a ?e WHERE { "
     "?a dcterms:issued 2010 . ?a dcterms:references ?b . "
     "?b dcterms:references ?c . ?c dcterms:references ?d . "
     "?d dcterms:references ?e }"),
    ("q05", "optional",
     "SELECT ?a ?see ?abs WHERE { "
     "?a rdf:type bench:Article . ?a dcterms:issued 2003 . "
     "OPTIONAL { ?a rdfs:seeAlso ?see } "
     "OPTIONAL { ?a bench:abstract ?abs } }"),
    ("q06", "join",
     "SELECT ?a ?name WHERE { "
     "?a bench:journal <http://sp2b.example.org/bench/journal/J1> . "
     "?a dc:creator ?p . ?p foaf:name ?name }"),
    ("q07", "distinct",
     "SELECT DISTINCT ?p WHERE { ?a dc:creator ?p }"),
    ("q08", "orderby+limit",
     "SELECT ?a ?yr WHERE { "
     "?a rdf:type bench:Article . ?a dcterms:issued ?yr } "
     "ORDER BY DESC(?yr) ?a LIMIT 20"),
    ("q09", "orderby+limit",
     "SELECT ?name WHERE { ?p foaf:name ?name } "
     "ORDER BY ?name LIMIT 50"),
    ("q10", "aggregate",
     "SELECT ?yr (COUNT(?a) AS ?n) WHERE { "
     "?a rdf:type bench:Article . ?a dcterms:issued ?yr } "
     "GROUP BY ?yr"),
    ("q11", "array",
     "SELECT ?s ?d[2,1] WHERE { "
     "?s bench:data ?d . ?s dcterms:issued 2007 }"),
    ("q12", "union",
     "SELECT ?t WHERE { "
     "{ ?j rdf:type bench:Journal . ?j dc:title ?t } UNION "
     "{ ?a dcterms:issued 2000 . ?a dc:title ?t } }"),
]

QUERY_TEXT = {name: PREFIXES + body for name, _, body in QUERIES}
QUERY_NAMES = [name for name, _, _ in QUERIES]


def mix_schedule(key, count):
    """``count`` query names: shuffled rounds of the whole mix.

    Every run of 12 consecutive arrivals holds each query once, so the
    composition of a phase (and with it the tail) does not depend on
    the seed; only the order does.
    """
    rng = random.Random("mix:%s" % (key,))
    names = []
    while len(names) < count:
        block = list(QUERY_NAMES)
        rng.shuffle(block)
        names.extend(block)
    return names[:count]


# -- fingerprints ----------------------------------------------------------------


def _canonical(value):
    """A stable textual form of one result cell, across both stores."""
    from repro.arrays.nma import NumericArray
    from repro.arrays.proxy import ArrayProxy
    from repro.rdf.term import BlankNode, Literal, URI

    if value is None:
        return "~unbound~"
    if isinstance(value, bool):
        return "b:true" if value else "b:false"
    if isinstance(value, int):
        return "i:%d" % value
    if isinstance(value, float):
        return "f:%r" % value
    if isinstance(value, str):
        return "s:" + value
    if isinstance(value, URI):
        return "<%s>" % value.value
    if isinstance(value, BlankNode):
        return "_:bnode"
    if isinstance(value, Literal):
        return "l:%s@%s^^%s" % (
            value.lexical_form(), value.lang or "",
            getattr(value.datatype, "value", ""),
        )
    if isinstance(value, ArrayProxy):
        value = value.resolve()
    if isinstance(value, NumericArray):
        return "a:%r" % (value.to_nested_lists(),)
    return "r:%r" % (value,)


def fingerprint(result):
    """(row count, order-insensitive 64-bit hash) of a QueryResult."""
    accumulator = 0
    for row in result.rows:
        digest = hashlib.sha256(
            "\x1f".join(_canonical(value) for value in row).encode("utf-8")
        ).digest()
        accumulator = (accumulator + int.from_bytes(digest[:8], "big")) \
            % (1 << 64)
    return len(result.rows), "%016x" % accumulator


def oracle_fingerprints(scale, seed):
    """Fingerprints of the mix on the ``HashIndexGraph`` store.

    The hash-graph store runs the legacy per-row interpreter with no ID
    space, so it is an independent path to the same answers.
    """
    from repro.rdf.hashgraph import HashIndexGraph
    from repro.ssdm import SSDM

    oracle = SSDM.with_triple_store(HashIndexGraph())
    for statement, _ in insert_batches(scale, seed):
        oracle.execute(statement)
    return {name: fingerprint(oracle.execute(text))
            for name, text in QUERY_TEXT.items()}
