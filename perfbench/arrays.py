"""The array workload: the §6.3 mini-benchmark expressed as SciSPARQL.

``COUNT`` float64 matrices of ``SIDE`` x ``SIDE`` (96 MiB in all, more
than the 64 MiB default buffer pool) are stored in a file-backed
``SqlArrayStore`` with its default 8 KiB chunks, each with a few
metadata triples.  Queries find a matrix by name (a 2-pattern BGP) and
subscript it by element, row, column or 64 x 64 block, or sum it with
``ARRAY_SUM``, which the SQL back-end computes itself.
"""

from __future__ import annotations

import random

import numpy as np

COUNT = 48
SIDE = 512
BLOCK = 64

NS = "http://ssdm.example.org/minibench/"
P_NAME = NS + "name"
P_DATA = NS + "data"
P_ROWS = NS + "rows"
P_EXPERIMENT = NS + "experiment"
P_NOTE = NS + "note"

PATTERNS = ("element", "row", "column", "block", "sum")


def matrix_uri(index):
    return "%smatrix/M%d" % (NS, index)


def matrix_name(index):
    return "m%03d" % index


def matrices(seed, count=COUNT, side=SIDE):
    """The stored matrices, regenerated from the seed: (count, side, side)."""
    return np.random.default_rng(seed).standard_normal((count, side, side))


def metadata(index):
    """(subject, predicate, object) triples describing one matrix,
    besides its array-valued ``data`` triple."""
    subject = matrix_uri(index)
    return [
        (subject, P_NAME, matrix_name(index)),
        (subject, P_ROWS, SIDE),
        (subject, P_EXPERIMENT, NS + "experiment/E%d" % (index % 6)),
    ]


class Request:
    """One array query and how to check its answer."""

    __slots__ = ("pattern", "index", "text", "window")

    def __init__(self, pattern, index, text, window):
        self.pattern = pattern
        self.index = index
        self.text = text
        #: numpy index tuple selecting the expected elements (None: sum)
        self.window = window


def _query(index, projection):
    return ('SELECT %s WHERE { ?m <%s> "%s" . ?m <%s> ?a }'
            % (projection, P_NAME, matrix_name(index), P_DATA))


def requests(key, count, matrix_count=COUNT, side=SIDE):
    """``count`` requests: uniform over patterns and matrices.

    Like the SP²Bench mix, each run of ``len(PATTERNS)`` consecutive
    requests holds every pattern once, in seeded order.
    """
    rng = random.Random("arrays:%s" % (key,))
    block = min(BLOCK, side)
    out = []
    while len(out) < count:
        order = list(PATTERNS)
        rng.shuffle(order)
        for pattern in order:
            index = rng.randrange(matrix_count)
            # subscripts are 1-based and ranges inclusive
            i, j = rng.randrange(side), rng.randrange(side)
            if pattern == "element":
                text = _query(index, "?a[%d,%d]" % (i + 1, j + 1))
                window = (index, i, j)
            elif pattern == "row":
                text = _query(index, "?a[%d,:]" % (i + 1))
                window = (index, i, slice(None))
            elif pattern == "column":
                text = _query(index, "?a[:,%d]" % (j + 1))
                window = (index, slice(None), j)
            elif pattern == "block":
                r = rng.randrange(side - block + 1)
                c = rng.randrange(side - block + 1)
                text = _query(index, "?a[%d:%d,%d:%d]"
                              % (r + 1, r + block, c + 1, c + block))
                window = (index, slice(r, r + block), slice(c, c + block))
            else:
                text = _query(index, "(ARRAY_SUM(?a) AS ?s)")
                window = None
            out.append(Request(pattern, index, text, window))
    return out[:count]


def expected_elements(request, side=SIDE):
    """How many elements the answer to ``request`` holds."""
    if request.window is None:
        return 1
    count = 1
    for part in request.window[1:]:
        if isinstance(part, slice):
            count *= len(range(*part.indices(side)))
    return count


def check(request, result, data):
    """True when one decoded answer equals numpy's.

    Subscripted elements must match exactly (float64 survives the JSON
    round trip); a back-end sum may add in another order, so it must
    lie within n * eps * sum(|x|) of numpy's.
    """
    if len(result.rows) != 1 or len(result.rows[0]) != 1:
        return False
    value = result.rows[0][0]
    matrix = data[request.index]
    if request.window is None:
        if not isinstance(value, float):
            return False
        tolerance = matrix.size * np.finfo(np.float64).eps \
            * float(np.abs(matrix).sum())
        return abs(value - float(matrix.sum())) <= tolerance
    want = data[request.window]
    if np.ndim(want) == 0:
        return isinstance(value, float) and value == float(want)
    to_list = getattr(value, "to_nested_lists", None)
    if to_list is None:
        return False
    got = np.asarray(to_list(), dtype=np.float64)
    return got.shape == want.shape and np.array_equal(got, want)


def annotations(seed, matrix_count=COUNT):
    """Endless ``(statement, triples)`` stream of metadata writes: a
    10-triple review note on a random matrix."""
    rng = random.Random("notes:%d" % seed)
    number = 0
    while True:
        number += 1
        note = "<%snote/N%d>" % (NS, number)
        facts = ["<%s> <%s> %s" % (matrix_uri(rng.randrange(matrix_count)),
                                   P_NOTE, note),
                 '%s <%s> "review %d"' % (note, P_NAME, number)]
        for field in range(8):
            facts.append("%s <%sfield%d> %d"
                         % (note, NS, field, rng.randrange(100000)))
        yield "INSERT DATA { %s }" % " . ".join(facts), len(facts)
