"""ID-space BGP evaluation: sorted-run scans and merge joins.

The per-row interpreter in :mod:`repro.engine.eval` probes the graph
once per input binding per pattern.  When the active graph stores
dictionary-encoded sorted permutation indexes
(``graph.supports_id_space``), a basic graph pattern can instead be
answered entirely in integer space: each triple pattern resolves to a
contiguous sorted run by binary search, patterns are combined with
vectorized merge/intersection joins over numpy ``int64`` columns, and
IDs are decoded back to term objects only when solutions leave the
pipeline as :class:`~repro.engine.bindings.Bindings`.

The matcher handles every BGP whose components are variables or ground
terms — i.e. all of them, post-translation — but stays *optional*: any
condition it cannot honour (intermediate result growing past
:data:`MAX_ROWS`) raises :class:`Fallback` **before the first solution
is produced**, and the engine reverts to the interpreter for that
input binding.  ``set_enabled(False)`` forces the interpreter globally,
which is how the parity property tests drive both paths.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

import numpy as np

from repro.engine.bindings import Bindings
from repro.governor import current_scope
from repro.lifecycle import current_deadline
from repro.rdf.term import is_term
from repro.sparql import ast

#: Hard cap on intermediate join width before falling back to the
#: per-row interpreter (which streams instead of materializing).  Under
#: a resource scope the *effective* guard is the query's remaining row
#: budget: a pattern whose output would blow the budget aborts with a
#: typed RESOURCE error before the arrays are allocated — falling back
#: to the interpreter would only grind out the same rows slowly.
MAX_ROWS = 4_000_000

_CONST = 0
_VAR = 1

_ENABLED = True


class _FastPathCounters:
    """Thread-safe solve/fallback counters with a dict-read API.

    Server query threads increment concurrently; a bare dict's
    ``+= 1`` loses updates under contention (read-modify-write races),
    which surfaces exactly when the load harness reads the counters
    mid-run.  Each thread increments its *own* cell (no lock on the
    solve hot path — just a ``threading.local`` attribute lookup);
    readers take the registry lock and sum across cells, so
    ``counters["solve"]`` is an exact total of all finished
    increments.
    """

    __slots__ = ("_names", "_local", "_lock", "_cells")

    def __init__(self, names=("solve", "fallback")):
        self._names = tuple(names)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._cells: List[Dict[str, int]] = []

    def _cell(self):
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = {name: 0 for name in self._names}
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
        return cell

    def increment(self, name):
        self._cell()[name] += 1

    def __getitem__(self, name):
        if name not in self._names:
            raise KeyError(name)
        with self._lock:
            return sum(cell[name] for cell in self._cells)

    def snapshot(self):
        with self._lock:
            return {
                name: sum(cell[name] for cell in self._cells)
                for name in self._names
            }


#: Fast-path usage counters (tests assert the path actually runs; the
#: load harness reads them from concurrent server threads).
counters = _FastPathCounters()


def set_enabled(flag):
    """Globally enable/disable the fast path (parity tests)."""
    global _ENABLED
    _ENABLED = bool(flag)
    return _ENABLED


class Fallback(Exception):
    """Raised before any solution is emitted: use the interpreter."""


def matcher_for(patterns, graph, keep=None):
    """A compiled :class:`IdBGPMatcher`, or None when unsupported.

    ``keep`` (projection pushdown, see ``logical.BGP.keep``) restricts
    which variables the decode materializes; None decodes all.
    """
    if not _ENABLED or not patterns:
        return None
    if not getattr(graph, "supports_id_space", False):
        return None
    specs = []
    names = set()
    for pattern in patterns:
        spec = []
        for component in (pattern.subject, pattern.predicate,
                          pattern.value):
            if isinstance(component, ast.Var):
                spec.append((_VAR, component.name))
                names.add(component.name)
            elif is_term(component):
                spec.append((_CONST, component))
            else:
                return None
        specs.append(spec)
    return IdBGPMatcher(graph, specs, names, keep)


class IdBGPMatcher:
    """One BGP compiled against one ID-space graph.

    A matcher is built once per ``_eval_BGP`` call and solved once per
    input binding; each solve joins fully in ID space, then decodes.
    """

    __slots__ = ("_graph", "_specs", "_names", "_keep")

    def __init__(self, graph, specs, names, keep=None):
        self._graph = graph
        self._specs = specs
        self._names = names
        self._keep = keep

    def solve(self, binding):
        """Solutions for one input binding.

        The ID-space join runs *eagerly* here — :class:`Fallback`
        escapes from this call, never from the returned iterator — and
        only decoding is lazy.
        """
        counters.increment("solve")
        state = self._join_ids(binding)
        return self._decode(binding, state)

    # -- ID-space join ------------------------------------------------------------

    def _join_ids(self, binding):
        # the pinned snapshot's version, or the current frozen state
        source = self._graph._reader()
        fixed = {}
        for name in self._names:
            term = binding.get(name)
            if term is not None:
                tid = source.try_encode(term)
                if tid is None:
                    # the bound term occurs in no triple at all
                    return None
                fixed[name] = tid
        scope = current_scope()
        columns: Dict[str, np.ndarray] = {}
        nrows = 1
        for spec in self._specs:
            columns, nrows = self._apply_pattern(
                spec, fixed, columns, nrows, source, scope
            )
            if nrows == 0:
                return None
            if scope is not None:
                scope.charge_rows(nrows, "idjoin")
                scope.charge_bytes(nrows * max(1, len(columns)) * 8,
                                   "idjoin")
        return columns, nrows, source

    def _apply_pattern(self, spec, fixed, columns, nrows, source,
                       scope=None):
        scalars = [None, None, None]
        joins: List[Tuple[int, str]] = []
        free: List[Tuple[int, str]] = []
        free_names = set()
        duplicates: List[Tuple[int, int]] = []
        for position, (kind, payload) in enumerate(spec):
            if kind == _CONST:
                tid = source.try_encode(payload)
                if tid is None:
                    return columns, 0
                scalars[position] = tid
            elif payload in fixed:
                scalars[position] = fixed[payload]
            elif payload in columns:
                joins.append((position, payload))
            elif payload in free_names:
                duplicates.append(
                    (next(q for q, n in free if n == payload), position)
                )
            else:
                free.append((position, payload))
                free_names.add(payload)

        run_s, run_p, run_o, leading_free = source._run_arrays(
            scalars[0], scalars[1], scalars[2]
        )
        run = (run_s, run_p, run_o)
        selection = None
        for first, second in duplicates:
            if selection is None:
                selection = np.nonzero(run[first] == run[second])[0]
            else:
                kept = run[first][selection] == run[second][selection]
                selection = selection[kept]

        def run_column(position):
            column = run[position]
            return column if selection is None else column[selection]

        run_length = len(run_s) if selection is None else len(selection)
        if run_length == 0:
            return columns, 0

        if not joins:
            total = nrows * run_length
            if scope is not None:
                scope.check_rows(total, "idjoin cartesian")
            if total > MAX_ROWS:
                counters.increment("fallback")
                raise Fallback()
            if not columns:
                new_columns = {
                    name: np.ascontiguousarray(run_column(position))
                    for position, name in free
                }
                return new_columns, run_length
            left = np.repeat(np.arange(nrows), run_length)
            right = np.tile(np.arange(run_length), nrows)
            new_columns = {
                name: column[left] for name, column in columns.items()
            }
            for position, name in free:
                new_columns[name] = run_column(position)[right]
            return new_columns, total

        # merge join on the first shared variable; further shared
        # variables filter with a vectorized equality pass
        join_position, join_name = joins[0]
        join_column = run_column(join_position)
        if join_position == leading_free and selection is None:
            order = None
            sorted_column = join_column
        else:
            order = np.argsort(join_column, kind="stable")
            sorted_column = join_column[order]
        left_values = columns[join_name]
        lo = np.searchsorted(sorted_column, left_values, "left")
        hi = np.searchsorted(sorted_column, left_values, "right")
        run_counts = hi - lo
        total = int(run_counts.sum())
        if scope is not None:
            scope.check_rows(total, "idjoin merge join")
        if total > MAX_ROWS:
            counters.increment("fallback")
            raise Fallback()
        left = np.repeat(np.arange(nrows), run_counts)
        offsets = np.arange(total) - np.repeat(
            np.cumsum(run_counts) - run_counts, run_counts
        )
        positions = np.repeat(lo, run_counts) + offsets
        right = positions if order is None else order[positions]
        for position, name in joins[1:]:
            mask = columns[name][left] == run_column(position)[right]
            left = left[mask]
            right = right[mask]
        new_columns = {
            name: column[left] for name, column in columns.items()
        }
        for position, name in free:
            new_columns[name] = run_column(position)[right]
        return new_columns, len(left)

    # -- decoding -----------------------------------------------------------------

    def _decode(self, binding, state):
        if state is None:
            return
        columns, nrows, source = state
        if not columns:
            # fully ground relative to the binding: at most one way
            for _ in range(nrows):
                yield binding
            return
        # decode through the same source the join read (a version's
        # dictionary may be older than the graph's after compaction)
        terms = source.term_list()
        keep = self._keep
        names = [
            name for name in columns if keep is None or name in keep
        ]
        if not names:
            for _ in range(nrows):
                yield binding
            return
        decoded = [
            [terms[tid] for tid in columns[name].tolist()]
            for name in names
        ]
        base = binding.as_dict()
        adopt = Bindings.adopt
        deadline = current_deadline()
        if base or deadline is not None:
            row = 0
            for cells in zip(*decoded):
                if deadline is not None and (row & 1023) == 0 and \
                        deadline.expired():
                    deadline.check()
                row += 1
                values = dict(base)
                values.update(zip(names, cells))
                yield adopt(values)
            return
        # hot case: no input binding, no deadline — emit with dict
        # literals (measurably cheaper than dict(zip(...)) per row)
        if len(names) == 1:
            name0, = names
            for value0 in decoded[0]:
                yield adopt({name0: value0})
        elif len(names) == 2:
            name0, name1 = names
            for value0, value1 in zip(*decoded):
                yield adopt({name0: value0, name1: value1})
        elif len(names) == 3:
            name0, name1, name2 = names
            for value0, value1, value2 in zip(*decoded):
                yield adopt(
                    {name0: value0, name1: value1, name2: value2}
                )
        else:
            for cells in zip(*decoded):
                yield adopt(dict(zip(names, cells)))
