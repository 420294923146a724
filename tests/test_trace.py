"""Trace ingestion tests: engine TSV files and the generic JSON document."""

from __future__ import annotations

import json

import pytest

from wattflow.errors import (
    EmptyTraceError,
    InvalidArgumentError,
    MissingColumnError,
    RowParseError,
    SchemaViolationError,
)
from wattflow.trace import (
    FLAG_CPU_TIME_FALLBACK,
    FLAG_OUTSIDE_WINDOW,
    FLAG_SUB_RESOLUTION,
    FLAG_UNKNOWN_NODE,
    TaskRecord,
    TaskStatus,
    WorkflowTrace,
    parse_duration_s,
    parse_generic_trace,
    parse_nextflow_trace,
    parse_timestamp_wall_ns,
    tasks_by_node,
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
        with pytest.raises(MissingColumnError, match="%cpu"):
            parse_nextflow_trace(path)

    def test_row_error_carries_row_number(self, tmp_path):
        rows = [tsv_row(task_id="1"),
                tsv_row(task_id="2", realtime="soon"),
                tsv_row(task_id="3")]
        with pytest.raises(RowParseError, match=":3:"):
            parse_nextflow_trace(write_tsv(tmp_path, rows))

    def test_unknown_status_is_row_error(self, tmp_path):
        with pytest.raises(RowParseError, match="PENDING"):
            parse_nextflow_trace(
                write_tsv(tmp_path, [tsv_row(status="PENDING")]))

    def test_empty_trace(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text(HEADER + "\n")
        with pytest.raises(EmptyTraceError):
            parse_nextflow_trace(str(p))
        p.write_text("")
        with pytest.raises(EmptyTraceError):
            parse_nextflow_trace(str(p))


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

    def test_task_outside_bounds_flagged_not_dropped(self):
        doc = generic_doc(submitted_wall_ns=3_000_000_000)
        trace = trace_from_obj(doc)
        assert len(trace.tasks) == 1
        assert FLAG_OUTSIDE_WINDOW in trace.tasks[0].flags

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
        lo2, hi2 = t.window(assumed_duration_s=2.0)
        assert hi2 - lo2 == 2_000_000_000

    def test_normal_window_is_logged_interval(self):
        t = TaskRecord(task_id="t", name="n", node_id="x",
                       start_wall_ns=5, end_wall_ns=11, cpu_time_s=0.0,
                       status=TaskStatus.COMPLETED)
        assert t.window() == (5, 11)


class TestHelpers:
    def test_tasks_by_node_sorted_by_start(self):
        doc = generic_doc()
        doc["tasks"] = [
            dict(doc["tasks"][0], task_id="a", node_id="n2",
                 start_wall_ns=3_000_000_000, end_wall_ns=4_000_000_000),
            dict(doc["tasks"][0], task_id="b", node_id="n1",
                 start_wall_ns=2_500_000_000, end_wall_ns=3_500_000_000),
            dict(doc["tasks"][0], task_id="c", node_id="n1",
                 start_wall_ns=2_000_000_000, end_wall_ns=6_000_000_000),
        ]
        groups = tasks_by_node(trace_from_obj(doc))
        assert sorted(groups) == ["n1", "n2"]
        assert [t.task_id for t in groups["n1"]] == ["c", "b"]
