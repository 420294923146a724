"""Trace ingestion tests: engine TSV files and the generic JSON document."""

from __future__ import annotations

import json

import pytest

from wattflow import trace as trace_module
from wattflow.errors import (
    InvalidArgumentError,
    ParseError,
    SchemaViolationError,
    load_json,
)
from wattflow.trace import (
    FLAG_CPU_TIME_FALLBACK,
    FLAG_NO_TIMING,
    FLAG_SUB_RESOLUTION,
    FLAG_UNKNOWN_NODE,
    TaskRecord,
    TaskStatus,
    WorkflowTrace,
    parse_duration_s,
    parse_generic_trace,
    parse_nextflow_trace,
    parse_timestamp_wall_ns,
    trace_from_obj,
    trace_to_obj,
    write_generic_trace,
)

HEADER = "task_id\tname\tstatus\tstart\tcomplete\trealtime\t%cpu\thostname"


def tsv_row(task_id="1", name="fastqc", status="COMPLETED",
            start="1700000000000", complete="1700000120000",
            realtime="2m", pcpu="350.0%", hostname="n1"):
    return "\t".join([task_id, name, status, start, complete, realtime,
                      pcpu, hostname])


def write_tsv(tmp_path, rows, header=HEADER, name="trace.txt"):
    p = tmp_path / name
    p.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(p)


class TestFieldParsers:
    def test_duration_forms(self):
        assert parse_duration_s("2m") == 120.0
        assert parse_duration_s("1m 20s") == 80.0
        assert parse_duration_s("500ms") == 0.5
        assert parse_duration_s("1.5s") == 1.5
        assert parse_duration_s("2h") == 7200.0
        # bare numbers are raw-mode milliseconds
        assert parse_duration_s("120000") == 120.0

    def test_duration_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_duration_s("fast")
        with pytest.raises(ValueError):
            parse_duration_s("")

    def test_timestamp_forms(self):
        assert parse_timestamp_wall_ns("1700000000000") \
            == 1_700_000_000_000_000_000
        assert parse_timestamp_wall_ns("2023-11-14 22:13:20") \
            == 1_700_000_000_000_000_000
        assert parse_timestamp_wall_ns("2023-11-14 22:13:20.250") \
            == 1_700_000_000_250_000_000


class TestNextflowTrace:
    def test_cpu_time_from_realtime_and_pcpu(self, tmp_path):
        # 120 s of wall runtime at 350% average utilization = 420 CPU-s.
        path = write_tsv(tmp_path, [tsv_row(realtime="2m", pcpu="350.0%")])
        trace = parse_nextflow_trace(path)
        assert trace.tasks[0].cpu_time_s == pytest.approx(420.0)

    def test_equal_start_complete_flags_sub_resolution(self, tmp_path):
        path = write_tsv(tmp_path, [
            tsv_row(start="1700000000000", complete="1700000000000",
                    realtime="300ms", pcpu="100%")])
        task = parse_nextflow_trace(path).tasks[0]
        assert task.sub_resolution
        assert FLAG_SUB_RESOLUTION in task.flags

    def test_nine_task_fixture_preserves_statuses(self, tmp_path):
        statuses = ["COMPLETED"] * 6 + ["CACHED", "FAILED", "ABORTED"]
        rows = [tsv_row(task_id=str(i), name=f"step_{i}", status=s,
                        start=str(1700000000000 + i * 1000),
                        complete=str(1700000060000 + i * 1000))
                for i, s in enumerate(statuses)]
        trace = parse_nextflow_trace(write_tsv(tmp_path, rows))
        assert len(trace.tasks) == 9
        got = [t.status for t in trace.tasks]
        assert got == [TaskStatus.COMPLETED] * 6 + [
            TaskStatus.CACHED, TaskStatus.FAILED, TaskStatus.FAILED]

    def test_workflow_bounds_cover_tasks(self, tmp_path):
        rows = [tsv_row(task_id="1", start="1700000005000",
                        complete="1700000015000"),
                tsv_row(task_id="2", start="1700000000000",
                        complete="1700000010000")]
        trace = parse_nextflow_trace(write_tsv(tmp_path, rows))
        assert trace.submitted_wall_ns == 1_700_000_000_000_000_000
        assert trace.finished_wall_ns == 1_700_000_015_000_000_000
        assert [t.flags for t in trace.tasks] == [frozenset()] * 2

    @pytest.mark.parametrize("field", ["start", "complete", "realtime",
                                       "pcpu"])
    def test_dash_field_leaves_the_row_untimed(self, tmp_path, field):
        # The engine writes "-" for a field it did not record; the row is
        # kept, flagged, and left out of the workflow window.
        aborted = {"task_id": "2", "status": "ABORTED",
                   "start": "1600000000000", "complete": "1800000000000"}
        rows = [tsv_row(task_id="1"), tsv_row(**{**aborted, field: "-"})]
        trace = parse_nextflow_trace(write_tsv(tmp_path, rows))
        timed, untimed = trace.tasks
        assert untimed.flags == frozenset({FLAG_NO_TIMING})
        assert (untimed.start_wall_ns, untimed.end_wall_ns,
                untimed.cpu_time_s) == (0, 0, 0.0)
        assert (trace.submitted_wall_ns, trace.finished_wall_ns) == \
            (timed.start_wall_ns, timed.end_wall_ns)

    def test_workflow_id_defaults_to_file_stem(self, tmp_path):
        path = write_tsv(tmp_path, [tsv_row()], name="rnaseq_run.txt")
        assert parse_nextflow_trace(path).workflow_id == "rnaseq_run"

    def test_missing_hostname_column_flags_unknown_node(self, tmp_path):
        header = "task_id\tname\tstatus\tstart\tcomplete\trealtime\t%cpu"
        row = "\t".join(["1", "x", "COMPLETED", "1700000000000",
                         "1700000001000", "1s", "100%"])
        trace = parse_nextflow_trace(write_tsv(tmp_path, [row], header=header))
        assert trace.tasks[0].node_id == "unknown"
        assert FLAG_UNKNOWN_NODE in trace.tasks[0].flags

    def test_dash_hostname_flags_unknown_node(self, tmp_path):
        trace = parse_nextflow_trace(
            write_tsv(tmp_path, [tsv_row(hostname="-")]))
        assert trace.tasks[0].node_id == "unknown"

    def test_missing_column_is_named(self, tmp_path):
        header = "task_id\tname\tstatus\tstart\tcomplete\trealtime"
        path = write_tsv(tmp_path, ["1\tx\tCOMPLETED\t0\t0\t1s"],
                         header=header)
        with pytest.raises(ParseError,
                           match="required column '%cpu' not in header"
                           ) as exc:
            parse_nextflow_trace(path)
        assert type(exc.value) is ParseError

    def test_row_error_carries_row_number(self, tmp_path):
        rows = [tsv_row(task_id="1"),
                tsv_row(task_id="2", realtime="soon"),
                tsv_row(task_id="3")]
        with pytest.raises(ParseError, match=":3:") as exc:
            parse_nextflow_trace(write_tsv(tmp_path, rows))
        assert type(exc.value) is ParseError

    def test_unknown_status_is_row_error(self, tmp_path):
        with pytest.raises(ParseError, match=":2:.*PENDING") as exc:
            parse_nextflow_trace(
                write_tsv(tmp_path, [tsv_row(status="PENDING")]))
        assert type(exc.value) is ParseError

    def test_empty_trace(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text(HEADER + "\n")
        with pytest.raises(ParseError, match="no task rows") as exc:
            parse_nextflow_trace(str(p))
        assert type(exc.value) is ParseError
        p.write_text("")
        with pytest.raises(ParseError, match="no header row") as exc:
            parse_nextflow_trace(str(p))
        assert type(exc.value) is ParseError


def generic_doc(**overrides):
    doc = {
        "workflow_id": "wf1",
        "submitted_wall_ns": 1_000_000_000,
        "finished_wall_ns": 9_000_000_000,
        "tasks": [{
            "task_id": "t1",
            "name": "align",
            "node_id": "n1",
            "start_wall_ns": 2_000_000_000,
            "end_wall_ns": 5_000_000_000,
            "cpu_time_s": 2.5,
            "status": "completed",
        }],
    }
    doc.update(overrides)
    return doc


# A bad second entry, after a good one: what it changes (None deletes a
# key), the JSON path after ``$.tasks[1]`` and the error it raises.
BAD_ENTRIES = [
    ({"start_wall_ns": True}, ".start_wall_ns",
     "expected integer, got boolean"),
    ({"end_wall_ns": False}, ".end_wall_ns",
     "expected integer, got boolean"),
    ({"start_wall_ns": 2e9}, ".start_wall_ns", "expected int, got float"),
    ({"cpu_time_s": True}, ".cpu_time_s", "expected number, got bool"),
    ({"cpu_time_s": "2.5"}, ".cpu_time_s", "expected number, got str"),
    ({"name": 7}, ".name", "expected str, got int"),
    ({"status": ["completed"]}, ".status", "expected str, got list"),
    ({"status": "paused"}, ".status", "unknown status 'paused'"),
    ({"task_id": ""}, "", "task_id must be non-empty"),
    ({"end_wall_ns": 1_000_000_000}, "",
     "task t2: end 1000000000 before start 2000000000"),
    ({"cpu_time_s": -1.0}, "", "task t2: cpu_time_s must be >= 0, "
     "got -1.0"),
    ({"node_id": None}, "", "missing required key 'node_id'"),
    ({"status": None}, "", "missing required key 'status'"),
]


def with_bad_entry(change) -> dict:
    entry = dict(generic_doc()["tasks"][0], task_id="t2")
    entry.update(change)
    doc = generic_doc()
    doc["tasks"].append({key: value for key, value in entry.items()
                         if value is not None})
    return doc


class TestGenericTrace:
    def test_minimal_document(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps(generic_doc()))
        trace = parse_generic_trace(str(p))
        assert len(trace.tasks) == 1
        task = trace.tasks[0]
        assert task.cpu_time_s == 2.5
        assert task.status is TaskStatus.COMPLETED
        assert task.flags == frozenset()

    def test_missing_cpu_time_falls_back_to_duration(self):
        doc = generic_doc()
        del doc["tasks"][0]["cpu_time_s"]
        trace = trace_from_obj(doc)
        assert trace.tasks[0].cpu_time_s == 3.0
        assert FLAG_CPU_TIME_FALLBACK in trace.tasks[0].flags

    def test_round_trip_is_identity(self, tmp_path):
        doc = generic_doc()
        doc["tasks"].append({
            "task_id": "t2", "name": "sort", "node_id": "n2",
            "start_wall_ns": 5_000_000_000, "end_wall_ns": 6_000_000_000,
            "status": "cached",
        })
        trace = trace_from_obj(doc)
        assert trace_to_obj(trace) == doc
        out = tmp_path / "out.json"
        write_generic_trace(trace, str(out))
        assert json.loads(out.read_text()) == doc

    def test_task_outside_bounds_not_dropped(self):
        doc = generic_doc(submitted_wall_ns=3_000_000_000)
        trace = trace_from_obj(doc)
        assert len(trace.tasks) == 1

    def test_schema_violations_name_json_path(self):
        doc = generic_doc()
        del doc["tasks"][0]["node_id"]
        with pytest.raises(SchemaViolationError, match=r"\$\.tasks\[0\]"):
            trace_from_obj(doc)
        with pytest.raises(SchemaViolationError, match="workflow_id"):
            trace_from_obj({"tasks": []})
        with pytest.raises(SchemaViolationError, match=r"\$\.tasks\[0\]\.status"):
            trace_from_obj(generic_doc(tasks=[dict(generic_doc()["tasks"][0],
                                                   status="paused")]))

    def test_invalid_json_is_schema_violation(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(SchemaViolationError):
            parse_generic_trace(str(p))

    def test_boolean_is_not_integer(self):
        doc = generic_doc(submitted_wall_ns=True)
        with pytest.raises(SchemaViolationError):
            trace_from_obj(doc)

    @pytest.mark.parametrize("change, path, message", BAD_ENTRIES)
    def test_bad_entry_error_names_its_path(self, change, path, message):
        with pytest.raises(SchemaViolationError) as exc:
            trace_from_obj(with_bad_entry(change))
        assert exc.value.json_path == f"$.tasks[1]{path}"
        assert str(exc.value) == f"$.tasks[1]{path}: {message}"

    def test_entry_that_is_not_an_object(self):
        doc = generic_doc()
        doc["tasks"].append(3)
        with pytest.raises(SchemaViolationError) as exc:
            trace_from_obj(doc)
        assert str(exc.value) == "$.tasks[1]: task entry must be an object"

    def test_nan_cpu_time_is_named(self, tmp_path):
        # json.load reads NaN, which no CPU time can be.
        p = tmp_path / "t.json"
        p.write_text(json.dumps(generic_doc()).replace("2.5", "NaN"))
        with pytest.raises(SchemaViolationError) as exc:
            parse_generic_trace(str(p))
        assert str(exc.value) == \
            "$.tasks[0]: task t1: cpu_time_s must be >= 0, got nan"

    def test_integer_cpu_time_and_any_status_case_are_read(self):
        doc = generic_doc()
        doc["tasks"][0].update(cpu_time_s=3, status="Cached")
        task, = trace_from_obj(doc).tasks
        assert type(task.cpu_time_s) is float and task.cpu_time_s == 3.0
        assert task.status is TaskStatus.CACHED
        assert task.flags == frozenset()


def task_entry(**changes) -> dict:
    return dict(generic_doc()["tasks"][0], **changes)


def decoded_both_ways(tmp_path, text: str):
    """What ``parse_generic_trace`` gives for ``text``, checked equal to
    what ``trace_from_obj`` gives for the plainly decoded document: the
    same trace, or a ``SchemaViolationError`` with the same message and
    JSON path, returned as ``(message, json_path)``."""
    path = tmp_path / "t.json"
    path.write_text(text, encoding="utf-8")

    def outcome(read):
        try:
            return read()
        except SchemaViolationError as exc:
            return str(exc), exc.json_path
    got = outcome(lambda: parse_generic_trace(str(path)))
    assert got == outcome(lambda: trace_from_obj(load_json(str(path))))
    return got


class TestDecodeParity:
    """``parse_generic_trace`` builds each record as its entry is decoded,
    and gives what the plainly decoded document gives."""

    def test_records_are_built_while_decoding(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(generic_doc()), encoding="utf-8")
        doc = load_json(str(path), object_hook=trace_module._decoded)
        assert type(doc["tasks"][0]) is TaskRecord
        assert decoded_both_ways(tmp_path, path.read_text()) \
            == trace_from_obj(generic_doc())

    @pytest.mark.parametrize("change, path, message", BAD_ENTRIES)
    def test_bad_entry(self, tmp_path, change, path, message):
        got = decoded_both_ways(tmp_path, json.dumps(with_bad_entry(change)))
        assert got == (f"$.tasks[1]{path}: {message}", f"$.tasks[1]{path}")

    def test_entry_that_is_not_an_object(self, tmp_path):
        doc = generic_doc()
        doc["tasks"].append(3)
        got = decoded_both_ways(tmp_path, json.dumps(doc))
        assert got == ("$.tasks[1]: task entry must be an object",
                       "$.tasks[1]")

    def test_task_shaped_top_level(self, tmp_path):
        got = decoded_both_ways(
            tmp_path, json.dumps(dict(task_entry(task_id="top"),
                                      **generic_doc())))
        assert [t.task_id for t in got.tasks] == ["t1"]

    def test_task_shaped_workflow_id(self, tmp_path):
        got = decoded_both_ways(
            tmp_path, json.dumps(generic_doc(workflow_id=task_entry())))
        assert got == ("$.workflow_id: expected str, got dict",
                       "$.workflow_id")

    def test_task_shaped_values_of_extra_keys(self, tmp_path):
        doc = generic_doc(meta=task_entry(task_id="doc-extra"))
        doc["tasks"][0]["extra"] = task_entry(task_id="task-extra")
        doc["tasks"].append(task_entry(task_id="t2", name=task_entry()))
        got = decoded_both_ways(tmp_path, json.dumps(doc))
        assert got == ("$.tasks[1].name: expected str, got dict",
                       "$.tasks[1].name")
        del doc["tasks"][1]
        got = decoded_both_ways(tmp_path, json.dumps(doc))
        assert [t.task_id for t in got.tasks] == ["t1"]

    def test_missing_cpu_time(self, tmp_path):
        doc = generic_doc()
        del doc["tasks"][0]["cpu_time_s"]
        doc["tasks"].append(task_entry(task_id="t2", cpu_time_s=3))
        first, second = decoded_both_ways(tmp_path, json.dumps(doc)).tasks
        assert first.flags == frozenset({FLAG_CPU_TIME_FALLBACK})
        assert first.cpu_time_s == 3.0
        assert type(second.cpu_time_s) is float and not second.flags

    def test_nan_cpu_time(self, tmp_path):
        text = json.dumps(generic_doc()).replace("2.5", "NaN")
        assert decoded_both_ways(tmp_path, text) == (
            "$.tasks[0]: task t1: cpu_time_s must be >= 0, got nan",
            "$.tasks[0]")

    def test_duplicated_key(self, tmp_path):
        # The last value of a key decoded twice is the one read.
        text = json.dumps(generic_doc()).replace(
            '"task_id": "t1"', '"task_id": 7, "status": "paused", '
            '"task_id": "t1"')
        assert '"task_id": 7' in text
        got = decoded_both_ways(tmp_path, text)
        assert got == trace_from_obj(generic_doc())
        text = text.replace('"status": "completed"', '"status": "x"')
        assert decoded_both_ways(tmp_path, text) == (
            "$.tasks[0].status: unknown status 'x'", "$.tasks[0].status")

    def test_duplicated_task_id(self, tmp_path):
        doc = generic_doc()
        doc["tasks"].append(task_entry(node_id="n2"))
        message, json_path = decoded_both_ways(tmp_path, json.dumps(doc))
        assert json_path == "$" and "duplicate task_id 't1'" in message

    def test_invalid_json_after_a_valid_task(self, tmp_path):
        doc = generic_doc()
        doc["tasks"].append(task_entry(task_id="t2"))
        text = json.dumps(doc)
        message, json_path = decoded_both_ways(
            tmp_path, text[:text.index('"t2"') + 6])
        assert json_path == "$"
        assert message.startswith("$: not valid JSON: ")


class TestDuplicateTaskIds:
    def test_workflow_trace_names_duplicated_id(self):
        # Two windows under one id would share one per-task entry and
        # break conservation, so the trace refuses them.
        tasks = tuple(
            TaskRecord(task_id="x", name="n", node_id="n1",
                       start_wall_ns=lo * 10**9, end_wall_ns=hi * 10**9,
                       cpu_time_s=1.0, status=TaskStatus.COMPLETED)
            for lo, hi in ((0, 10), (20, 30)))
        with pytest.raises(InvalidArgumentError, match="duplicate task_id 'x'"):
            WorkflowTrace(workflow_id="wf", submitted_wall_ns=0,
                          finished_wall_ns=60 * 10**9, tasks=tasks)

    def test_generic_document_rejects_duplicate(self):
        doc = generic_doc()
        doc["tasks"].append(dict(doc["tasks"][0], node_id="n2"))
        with pytest.raises(SchemaViolationError, match="'t1'"):
            trace_from_obj(doc)

    def test_engine_trace_rejects_duplicate(self, tmp_path):
        path = write_tsv(tmp_path, [tsv_row(task_id="7"),
                                    tsv_row(task_id="7", hostname="n2")])
        with pytest.raises(InvalidArgumentError, match="'7'"):
            parse_nextflow_trace(path)


class TestTaskRecord:
    def test_end_before_start_rejected(self):
        with pytest.raises(InvalidArgumentError):
            TaskRecord(task_id="t", name="n", node_id="x",
                       start_wall_ns=10, end_wall_ns=5, cpu_time_s=0.0,
                       status=TaskStatus.COMPLETED)

    def test_negative_cpu_time_rejected(self):
        with pytest.raises(InvalidArgumentError):
            TaskRecord(task_id="t", name="n", node_id="x",
                       start_wall_ns=0, end_wall_ns=1, cpu_time_s=-1.0,
                       status=TaskStatus.COMPLETED)

    def test_sub_resolution_window_is_assumed_duration(self):
        t = TaskRecord(task_id="t", name="n", node_id="x",
                       start_wall_ns=10**9, end_wall_ns=10**9,
                       cpu_time_s=0.1, status=TaskStatus.COMPLETED)
        lo, hi = t.window()
        assert hi - lo == 500_000_000
        assert (lo + hi) // 2 == 10**9

    def test_normal_window_is_logged_interval(self):
        t = TaskRecord(task_id="t", name="n", node_id="x",
                       start_wall_ns=5, end_wall_ns=11, cpu_time_s=0.0,
                       status=TaskStatus.COMPLETED)
        assert t.window() == (5, 11)

