"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for entry in (HERE, os.path.join(ROOT, "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import arrays     # noqa: E402
import layers     # noqa: E402
import loadgen    # noqa: E402
import run        # noqa: E402
import sp2b       # noqa: E402
import tracing    # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


# -- inputs are a pure function of the seed ----------------------------------------


def _first(stream, n):
    return [next(stream) for _ in range(n)]


def test_graph_is_byte_identical_per_seed():
    one = list(sp2b.insert_batches("bench", sp2b.GRAPH_SEED))
    two = list(sp2b.insert_batches("bench", sp2b.GRAPH_SEED))
    assert one == two
    assert one != list(sp2b.insert_batches("bench", sp2b.GRAPH_SEED + 1))
    assert all(count <= sp2b.BULK_BATCH for _, count in one)


def test_request_streams_are_identical_per_seed():
    assert _first(sp2b.notes("bench", 7), 50) \
        == _first(sp2b.notes("bench", 7), 50)
    assert _first(sp2b.notes("bench", 7), 5) \
        != _first(sp2b.notes("bench", 8), 5)
    assert sp2b.mix_schedule((7, "reads"), 100) \
        == sp2b.mix_schedule((7, "reads"), 100)
    assert _first(arrays.annotations(7), 20) == _first(arrays.annotations(7),
                                                       20)
    texts = [r.text for r in arrays.requests((7, "reads"), 100)]
    assert texts == [r.text for r in arrays.requests((7, "reads"), 100)]
    assert texts != [r.text for r in arrays.requests((8, "reads"), 100)]


def test_matrices_are_byte_identical_per_seed():
    one = arrays.matrices(3, 2, 16)
    assert one.tobytes() == arrays.matrices(3, 2, 16).tobytes()
    assert one.tobytes() != arrays.matrices(4, 2, 16).tobytes()


def test_mix_rounds_hold_every_query_once():
    names = sp2b.mix_schedule((1, "reads"), 36)
    for start in range(0, 36, 12):
        assert sorted(names[start:start + 12]) == sorted(sp2b.QUERY_NAMES)


def test_notes_are_new_and_described():
    one, two = _first(sp2b.notes("tiny", 1), 2)
    assert (one.subject, two.subject) == (sp2b.note_uri(1), sp2b.note_uri(2))
    assert one.triples == len(one.facts) + 1 == 10
    link = one.text.splitlines()[1]
    assert link.startswith("<%sarticle/A" % sp2b.BENCH)
    assert link.endswith("<%s> <%s> ." % (sp2b.P_NOTE, one.subject))


def test_no_query_reads_a_note():
    predicates = {p for note in _first(sp2b.notes("tiny", 1), 3)
                  for p, _ in note.facts} | {sp2b.P_NOTE}
    text = " ".join(sp2b.QUERY_TEXT.values())
    assert not any(p.rsplit("/", 1)[1] in text for p in predicates)


# -- the percentile and sample-count rule ------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert loadgen.percentile(values, 0.5) == 50
    assert loadgen.percentile(values, 0.99) == 99
    assert loadgen.percentile(values, 1.0) == 100
    assert loadgen.percentile([5.0], 0.99) == 5.0


def test_tail_needs_ten_samples_beyond_it():
    assert loadgen.beyond(1000, 0.99) == 10
    assert loadgen.supports(1000, 0.99)
    assert not loadgen.supports(999, 0.99)
    assert loadgen.supports(100, 0.9)
    assert not loadgen.supports(99, 0.9)


def test_window_rates_are_answers_per_second():
    def sample(done):
        return loadgen.Sample(None, 0.0, 0.0, True, None, done)

    steady = [sample(i / 100) for i in range(200)]       # 100/s for 2 s
    stalled = [s for s in steady if not 0.5 <= s.done < 1.0]
    assert loadgen.window_rates(steady, 2.0, 0.5) \
        == pytest.approx([100] * 4)
    rates = loadgen.window_rates(stalled, 2.0, 0.5)
    assert rates[1] == 0.0
    assert statistics.median(rates) == pytest.approx(100)


def test_closed_loop_splits_requests_and_needs_enough_of_them():
    sent = []

    def issue(client, spec):
        sent.append((client, spec))
        return spec

    with pytest.raises(RuntimeError):
        loadgen.closed_loop(["a", "b"], list(range(7)), 60.0, issue,
                            lambda s: None)
    assert sorted(spec for client, spec in sent if client == "a") \
        == [0, 2, 4, 6]
    assert sorted(spec for client, spec in sent if client == "b") \
        == [1, 3, 5]


def test_block_medians_cut_near_equal_blocks():
    assert loadgen.block_medians([], 50) == []
    assert loadgen.block_medians([3.0, 1.0, 2.0], 50) == [2.0]
    values = list(range(100)) + [1000.0] * 24        # 124 -> 2 blocks
    assert loadgen.block_medians(values, 50) == [30.5, 92.5]
    # a slow stretch covering one block of five does not move the median
    values = [1.0] * 200 + [9.0] * 50
    assert statistics.median(loadgen.block_medians(values, 50)) == 1.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_nominal_run_supports_a_read_p99_and_block_medians(name):
    assert SPEC["run_seconds"] == workloads.NOMINAL_SECONDS
    cls = workloads.WORKLOADS[name]
    assert cls.rounds * sum(p.share for p in cls.phases) \
        == pytest.approx(workloads.NOMINAL_SECONDS)
    reads = writes = 0
    blocks = {"reads": 0, "writes": 0}

    def add(kind, count):
        blocks[kind] += len(loadgen.block_medians([0.0] * count,
                                                  workloads.LATENCY_BLOCK))
        return count

    for phase in cls.phases * cls.rounds:
        if phase.loop == "open":
            count = phase.count(SPEC["run_seconds"])
            if phase.name == "writes":
                writes += add("writes", count)
            else:
                reads += add("reads", count)
    assert loadgen.supports(reads, 0.99)
    # a slow stretch must cover five or more blocks to move a p50
    assert min(blocks.values()) >= 10


# -- span arithmetic ---------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    spans = [
        {"sid": 1, "parent": None, "busy": 10.0},
        {"sid": 2, "parent": 1, "busy": 4.0},
        {"sid": 3, "parent": 2, "busy": 1.5},
        {"sid": 4, "parent": 1, "busy": 3.0},
    ]
    assert tracing.self_times(spans) == {1: 3.0, 2: 2.5, 3: 1.5, 4: 3.0}


def test_recorder_nests_calls_and_generators():
    clock = _Clock()
    recorder = tracing.Recorder("t", clock=clock)
    recorder.active = True

    def leaf():
        clock.now += 1.0

    def rows():
        for _ in range(3):
            clock.now += 2.0
            traced_leaf()
            yield 1

    traced_leaf = tracing._wrap_call(recorder, "leaf", leaf, None)
    traced_rows = tracing._wrap_generator(recorder, "rows", rows, None)

    def outer():
        for _ in traced_rows():
            clock.now += 5.0          # the consumer's own work

    tracing._wrap_call(recorder, "outer", outer, None)()
    spans = [span.as_dict() for span in recorder.spans]
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    outer_span, = by_name["outer"]
    rows_span, = by_name["rows"]
    assert outer_span["busy"] == 24.0
    assert rows_span["busy"] == 9.0
    assert rows_span["parent"] == outer_span["sid"]
    assert {s["parent"] for s in by_name["leaf"]} == {rows_span["sid"]}
    assert {s["request"] for s in spans} == {outer_span["request"]}
    own = tracing.self_times(spans)
    assert own[outer_span["sid"]] == 15.0
    assert own[rows_span["sid"]] == 6.0


def test_inactive_recorder_records_nothing():
    recorder = tracing.Recorder("t")
    traced = tracing._wrap_call(recorder, "f", lambda: 3, None)
    assert traced() == 3
    assert recorder.spans == []


def test_dump_starts_a_fresh_record(tmp_path):
    recorder = tracing.Recorder("t")
    recorder.active = True
    tracing._wrap_call(recorder, "f", lambda: None, None)()
    recorder.count("c", 2)
    path = str(tmp_path / "spans.json")
    recorder.dump(path)
    dumped = tracing.load(path)
    assert [s["name"] for s in dumped["spans"]] == ["f"]
    assert dumped["counters"] == {"c": 2}
    assert recorder.spans == [] and not recorder.counters


# -- answer checks -------------------------------------------------------------------


def test_array_check_rejects_a_changed_element():
    from repro.arrays.nma import NumericArray
    from repro.ssdm import QueryResult

    data = arrays.matrices(1, 2, 96)
    for request in arrays.requests((1, "check"), 10, 2, 96):
        if request.window is None:
            right = float(data[request.index].sum())
            wrong = right + 1e-3
        else:
            want = data[request.window]
            if want.ndim == 0:
                right, wrong = float(want), float(want) + 1.0
            else:
                right = NumericArray(want.copy())
                changed = want.copy()
                changed.flat[0] += 1.0
                wrong = NumericArray(changed)
        assert arrays.check(request, QueryResult(["v"], [(right,)]), data)
        assert not arrays.check(request, QueryResult(["v"], [(wrong,)]),
                                data)


def test_expected_elements_counts_the_window():
    data = arrays.matrices(1, 1, 96)
    for request in arrays.requests((1, "size"), 20, 1, 96):
        want = 1 if request.window is None else data[request.window].size
        assert arrays.expected_elements(request, 96) == want


def test_point_read_facts_match_the_generated_tokens():
    from repro.rdf.term import URI
    from repro.ssdm import QueryResult

    facts = next(sp2b.notes("tiny", 1)).facts
    rows = []
    for predicate, token in facts:
        if token.startswith("<"):
            value = URI(token[1:-1])
        elif token.startswith('"'):
            value = token[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        else:
            value = int(token)
        rows.append((URI(predicate), value))
    assert sp2b.point_read_facts(QueryResult(["p", "o"], rows)) == facts
    assert sp2b.point_read_facts(QueryResult(["p", "o"], rows[1:])) != facts


# -- the metric names match BENCHMARK.json -----------------------------------------


def test_benchmark_json_names_every_metric():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == layers.PER_LAYER
    assert sorted(w["name"] for w in SPEC["workloads"]) \
        == sorted(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        n["bound"] for n in SPEC["end_to_end"]) for m in SPEC["end_to_end"])


# -- smoke runs ----------------------------------------------------------------------


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")]
        + list(args), cwd=cwd, capture_output=True, text=True, timeout=170)


#: small datasets for the smoke runs, as workload constructor arguments
SMALL = {
    "sp2b-read": "scale=sp2b.SCALES['tiny']",
    "array-sql": "count=6, side=96",
}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name, trace):
    argv = ["--workload", name, "--seed", "3", "--seconds", "1.5",
            "--trace", trace]
    code = "import sys, run, sp2b; sys.exit(run.main(%r, %s))" % (
        argv, SMALL[name])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [HERE, os.path.join(ROOT, "src")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 100
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for spec in wanted:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not os.path.exists(os.path.join(HERE, "_work", "")) \
        or not os.listdir(os.path.join(HERE, "_work"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = _run(str(tmp_path), "--workload", "sp2b-read", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
