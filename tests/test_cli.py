"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import pytest

from wattflow import accounting, cli
from wattflow.accounting import (
    AttributionPolicy,
    EnergyReport,
    MeasurementMethod,
    PolicyKind,
    report_to_json,
)
from wattflow.cli import main
from wattflow.counter import CounterSpec, RaplDomain
from wattflow.logfile import LogStatus, LogWriter, parse_log
from wattflow.trace import (
    TaskRecord,
    TaskStatus,
    WorkflowTrace,
    parse_generic_trace,
    write_generic_trace,
)

from test_orchestrate import (
    closed_logs_config,
    make_run_config,
    prewritten_run_config,
    write_agent_config,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
S = 1_000_000_000
ORIGIN = 1_700_000_000_000_000_000


def scenario_doc(scenario_id: str = "demo") -> dict:
    """Two exclusive tasks on one node, idle floor below them."""
    return {
        "scenario_id": scenario_id,
        "wall_origin_ns": ORIGIN,
        "sample_interval_ms": 500,
        "workflow": {"workflow_id": "wf-demo", "start_s": 0.0,
                     "end_s": 60.0},
        "method_timing": {"shell_lead_s": 1.0, "plugin_delay_s": 4.0,
                          "taskmethod_delay_s": 5.0,
                          "scrape_interval_s": 15.0},
        "nodes": [
            {"node_id": "alpha", "idle_watts": 40.0,
             "spec": {"domain": "package", "bit_width": 32,
                      "unit_j": 1e-6},
             "tasks": [
                 {"task_id": "t1", "start_s": 0.0, "end_s": 30.0,
                  "watts": 100.0, "cpu_time_s": 55.0},
                 {"task_id": "t2", "start_s": 30.0, "end_s": 60.0,
                  "watts": 70.0, "cpu_time_s": 28.0},
             ]},
        ],
    }


def write_scenario(tmp_path, doc=None) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc or scenario_doc()), encoding="utf-8")
    return str(path)


def run_simulate(tmp_path, out_name: str = "sim") -> str:
    out = tmp_path / out_name
    code = main(["simulate", "--scenario", write_scenario(tmp_path),
                 "--out", str(out)])
    assert code == 0
    return str(out)


def warnings_in(err: str) -> list[str]:
    return [line for line in err.splitlines()
            if line.startswith("wattflow: warning:")]


def partial_warning(*flags: str) -> list[str]:
    """The one warning line an exit 4 prints for a report's flags."""
    return ["wattflow: warning: report computed from partial data, "
            f"flags: {', '.join(flags)}"]


def write_run_config(tmp_path, config) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dataclasses.asdict(config)),
                    encoding="utf-8")
    return str(path)


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def usage_error_without_traceback(*args: str) -> str:
    """The standard error of ``wattflow ARGS``, run in its own process and
    checked to exit 2 with an error line and no traceback."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run([sys.executable, "-m", "wattflow.cli", *args],
                            env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("wattflow: error:"), result.stderr
    return result.stderr


CLOSED = "#wattflow-end status=closed\n"
GAP_THEN_CLOSED = "#wattflow-gap t_ns=1500000000 domain=package\n" + CLOSED


class TestSimulateCommand:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        out = run_simulate(tmp_path)
        stdout = capsys.readouterr().out
        assert "vs shell" in stdout
        assert "ground truth" in stdout
        names = sorted(os.listdir(out))
        assert "rapl_alpha_demo.csv" in names
        assert "trace_demo.json" in names
        assert "coverage_demo.json" in names
        assert "coverage_demo.txt" in names
        for method in MeasurementMethod:
            assert f"report_demo_{method.value}.json" in names

    def test_deterministic_outputs(self, tmp_path):
        out_a = run_simulate(tmp_path, "a")
        out_b = run_simulate(tmp_path, "b")
        for name in sorted(os.listdir(out_a)):
            with open(os.path.join(out_a, name), "rb") as fa, \
                    open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_bad_scenario_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code = main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_scenario_file_is_usage_error(self, tmp_path):
        code = main(["simulate", "--scenario",
                     str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_second_run_into_one_directory_names_the_existing_log(
            self, tmp_path, capsys):
        # The agent skips a session whose log exists; simulate must not
        # evaluate the earlier run's file instead.
        out = run_simulate(tmp_path)
        capsys.readouterr()
        code = main(["simulate", "--scenario", write_scenario(tmp_path),
                     "--out", out])
        assert code == 3
        log = os.path.join(out, "rapl_alpha_demo.csv")
        assert capsys.readouterr().err == (
            f"wattflow: error: the agent skipped session demo: its log "
            f"{log} already exists or cannot be created\n")

    @pytest.mark.parametrize("key, bad", [("node_id", "n 1"),
                                          ("scenario_id", "demo/x")])
    def test_id_a_log_cannot_carry_exits_2_at_load(self, tmp_path, capsys,
                                                   key, bad):
        doc = scenario_doc()
        if key == "node_id":
            doc["nodes"][0]["node_id"] = bad
        else:
            doc["scenario_id"] = bad
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(out)])
        assert code == 2
        assert "not filesystem-safe" in capsys.readouterr().err
        assert not out.exists()


class TestReportCommand:
    def test_report_from_simulated_logs(self, tmp_path, capsys):
        out = run_simulate(tmp_path)
        capsys.readouterr()
        code = main(["report", "--logs", out,
                     "--trace", os.path.join(out, "trace_demo.json"),
                     "--policy", "cputime"])
        assert code == 0
        captured = capsys.readouterr()
        assert warnings_in(captured.err) == []
        report = json.loads(captured.out)
        assert "flags" not in report
        assert report["workflow_id"] == "wf-demo"
        assert {t["task_id"] for t in report["per_task"]} == {"t1", "t2"}
        # 60 s window: 40 W idle + 100 W * 30 s + 70 W * 30 s.
        assert report["total_joules"] == pytest.approx(
            40.0 * 60 + 100.0 * 30 + 70.0 * 30, rel=1e-3)

    def test_policies_agree_on_exclusive_trace(self, tmp_path, capsys):
        out = run_simulate(tmp_path)
        per_task = {}
        for policy in ("cputime", "walltime"):
            capsys.readouterr()
            code = main(["report", "--logs", out,
                         "--trace", os.path.join(out, "trace_demo.json"),
                         "--policy", policy])
            assert code == 0
            report = json.loads(capsys.readouterr().out)
            per_task[policy] = {
                t["task_id"]: sum(t["joules_by_domain"].values())
                for t in report["per_task"]}
        assert per_task["cputime"] == pytest.approx(per_task["walltime"])

    def test_output_file_byte_stable(self, tmp_path, capsys):
        out = run_simulate(tmp_path)
        paths = []
        for name in ("r1.json", "r2.json"):
            target = str(tmp_path / name)
            code = main(["report", "--logs", out,
                         "--trace", os.path.join(out, "trace_demo.json"),
                         "--out", target])
            assert code == 0
            paths.append(target)
        with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
            assert fa.read() == fb.read()

    def test_missing_node_log_names_node(self, tmp_path, capsys):
        out = run_simulate(tmp_path)
        ghost_trace = WorkflowTrace(
            workflow_id="wf-demo", submitted_wall_ns=ORIGIN,
            finished_wall_ns=ORIGIN + 60 * S,
            tasks=(TaskRecord(
                task_id="g1", name="g1", node_id="ghost",
                start_wall_ns=ORIGIN, end_wall_ns=ORIGIN + 10 * S,
                cpu_time_s=10.0, status=TaskStatus.COMPLETED),))
        trace_path = str(tmp_path / "ghost.json")
        write_generic_trace(ghost_trace, trace_path)
        code = main(["report", "--logs", out, "--trace", trace_path])
        assert code == 3
        assert "ghost" in capsys.readouterr().err

    def test_flagged_log_yields_partial_exit(self, tmp_path, capsys):
        logs_dir = tmp_path / "logs"
        logs_dir.mkdir()
        spec = CounterSpec(domain=RaplDomain.PACKAGE, bit_width=32,
                           energy_unit_joules=1e-6)
        writer = LogWriter(str(logs_dir / "rapl_alpha_sess.csv"), "alpha",
                           {RaplDomain.PACKAGE: spec},
                           epoch_wall_ns=ORIGIN)
        for k in range(11):
            writer.record(k * S, RaplDomain.PACKAGE, k * 50_000_000)
        writer.gap(11 * S, RaplDomain.PACKAGE)
        writer.record(12 * S, RaplDomain.PACKAGE, 600_000_000)
        writer.close(LogStatus.CLOSED)
        trace = WorkflowTrace(
            workflow_id="wf-g", submitted_wall_ns=ORIGIN,
            finished_wall_ns=ORIGIN + 12 * S,
            tasks=(TaskRecord(
                task_id="t", name="t", node_id="alpha",
                start_wall_ns=ORIGIN, end_wall_ns=ORIGIN + 10 * S,
                cpu_time_s=10.0, status=TaskStatus.COMPLETED),))
        trace_path = str(tmp_path / "trace.json")
        write_generic_trace(trace, trace_path)
        code = main(["report", "--logs", str(logs_dir),
                     "--trace", trace_path])
        captured = capsys.readouterr()
        assert code == 4
        assert "partial" in captured.err
        assert json.loads(captured.out)["workflow_id"] == "wf-g"

    def test_duplicate_task_id_is_usage_error(self, tmp_path, capsys):
        out = run_simulate(tmp_path)
        doc = {"workflow_id": "wf-demo", "submitted_wall_ns": ORIGIN,
               "finished_wall_ns": ORIGIN + 60 * S,
               "tasks": [{"task_id": "x", "name": "x", "node_id": "alpha",
                          "start_wall_ns": ORIGIN + lo * S,
                          "end_wall_ns": ORIGIN + hi * S,
                          "cpu_time_s": 5.0, "status": "completed"}
                         for lo, hi in ((0, 10), (20, 30))]}
        trace_path = tmp_path / "dup.json"
        trace_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = main(["report", "--logs", out, "--trace", str(trace_path),
                     "--policy", "walltime"])
        captured = capsys.readouterr()
        assert code == 2
        assert "duplicate task_id 'x'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("change, where", [
        ({"end_wall_ns": 10**400}, "$.tasks[0]:"),
        ({"cpu_time_s": 10**400}, "$.tasks[0].cpu_time_s:")])
    def test_number_no_float_holds_in_trace_exits_2(self, tmp_path,
                                                    change, where):
        out = run_simulate(tmp_path)
        doc = read_json(os.path.join(out, "trace_demo.json"))
        doc["tasks"][0].update(change)
        if "cpu_time_s" not in change:
            del doc["tasks"][0]["cpu_time_s"]
        trace_path = tmp_path / "huge.json"
        trace_path.write_text(json.dumps(doc), encoding="utf-8")
        assert where in usage_error_without_traceback(
            "report", "--logs", out, "--trace", str(trace_path))

    def test_non_ascii_byte_in_log_is_usage_error(self, tmp_path, capsys):
        out = run_simulate(tmp_path)
        log = next(os.path.join(out, name) for name in sorted(os.listdir(out))
                   if name.startswith("rapl_"))
        with open(log, "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[3] = lines[3][:-1] + b"\xe9"
        with open(log, "wb") as fh:
            fh.write(b"\n".join(lines))
        capsys.readouterr()
        code = main(["report", "--logs", out,
                     "--trace", os.path.join(out, "trace_demo.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == \
            f"wattflow: error: {log}:4: non-ASCII byte 0xe9\n"
        assert captured.out == ""

    @pytest.mark.parametrize("trace_text", ["{not json", None])
    def test_bad_log_is_reported_before_bad_trace(self, tmp_path, capsys,
                                                  trace_text):
        # The trace plans the edges the logs are read at, so it is read
        # first; a bad log must still be the error reported.
        out = run_simulate(tmp_path)
        log = next(os.path.join(out, name) for name in sorted(os.listdir(out))
                   if name.startswith("rapl_"))
        with open(log, "a", encoding="ascii") as fh:
            fh.write("5,package,1\n")
        trace = tmp_path / "bad_trace.json"
        if trace_text is not None:
            trace.write_text(trace_text, encoding="utf-8")
        capsys.readouterr()
        code = main(["report", "--logs", out, "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"wattflow: error: {log}:")
        assert "content after end trailer" in captured.err
        assert captured.out == ""

    def test_window_past_the_64_bit_range_is_clipped(self, tmp_path,
                                                     capsys):
        # A trace in the wrong unit can reach far outside the log's
        # signed 64-bit monotonic times; the window is clipped to the
        # log's span as for an in-memory log.
        out = run_simulate(tmp_path)
        with open(os.path.join(out, "trace_demo.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["submitted_wall_ns"] = ORIGIN - 2 ** 64
        doc["finished_wall_ns"] = ORIGIN + 2 ** 64
        doc["tasks"][0]["start_wall_ns"] = ORIGIN - 2 ** 64
        trace_path = tmp_path / "wide_trace.json"
        trace_path.write_text(json.dumps(doc), encoding="utf-8")
        logs = {}
        for name in sorted(os.listdir(out)):
            if name.startswith("rapl_"):
                parsed = parse_log(os.path.join(out, name))
                logs[parsed.node_id] = parsed
        want = report_to_json(accounting.assemble_report(
            parse_generic_trace(str(trace_path)), logs,
            AttributionPolicy(kind=PolicyKind.CPU_TIME_SHARE),
            method=MeasurementMethod.SHELL_WRAP))
        capsys.readouterr()
        code = main(["report", "--logs", out, "--trace", str(trace_path)])
        captured = capsys.readouterr()
        assert code == 4
        assert "clipped_window" in captured.err
        assert captured.out == want

    def test_session_reads_only_its_own_logs(self, tmp_path, capsys):
        # Another session's log that does not parse sits beside the
        # simulated one: --session never opens it.
        out = run_simulate(tmp_path)
        trace = os.path.join(out, "trace_demo.json")
        clean = str(tmp_path / "clean.json")
        assert main(["report", "--logs", out, "--trace", trace,
                     "--out", clean]) == 0
        with open(os.path.join(out, "rapl_alpha_other.csv"), "w") as fh:
            fh.write("not a log\n")
        target = str(tmp_path / "report.json")
        assert main(["report", "--logs", out, "--trace", trace,
                     "--session", "demo", "--out", target]) == 0
        with open(clean, "rb") as fa, open(target, "rb") as fb:
            assert fa.read() == fb.read()
        assert main(["report", "--logs", out, "--trace", trace]) == 2

    def test_unparseable_log_of_another_session_asks_for_session(
            self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario",
                     os.path.join(ROOT, "scenarios", "rnaseq_like.json"),
                     "--out", str(out)]) == 0
        (out / "rapl_n1_other.csv").write_text("not a log\n")
        capsys.readouterr()
        code = main(["report", "--logs", str(out),
                     "--trace", str(out / "trace_rnaseq_like.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"wattflow: error: multiple sessions in {out}: rnaseq_like, "
            f"rapl_n1_other.csv (does not parse); pick one with --session\n")
        assert captured.out == ""

    def test_empty_logs_dir_is_usage_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        code = main(["report", "--logs", str(tmp_path / "empty"),
                     "--trace", str(tmp_path / "missing.json")])
        assert code == 2

    def test_exclusive_policy_rejects_baseline(self, tmp_path, capsys):
        out = run_simulate(tmp_path)
        code = main(["report", "--logs", out,
                     "--trace", os.path.join(out, "trace_demo.json"),
                     "--policy", "exclusive",
                     "--idle-baseline-watts", "40"])
        assert code == 2


def write_report(path: str, workflow_id: str, method: MeasurementMethod,
                 total: float) -> str:
    report = EnergyReport(
        workflow_id=workflow_id, method=method, total_joules=total,
        per_node={"n1": {RaplDomain.PACKAGE: total}})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))
    return path


class TestCompareCommand:
    def test_three_method_table(self, tmp_path, capsys):
        a = write_report(str(tmp_path / "a.json"), "wf",
                         MeasurementMethod.SHELL_WRAP, 393906.17)
        b = write_report(str(tmp_path / "b.json"), "wf",
                         MeasurementMethod.SIGNAL_WORKFLOW, 393151.76)
        c = write_report(str(tmp_path / "c.json"), "wf",
                         MeasurementMethod.SIGNAL_PLUGIN, 392469.08)
        out_json = str(tmp_path / "table.json")
        code = main(["compare", a, b, c, "--out", out_json])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "100.00%" in stdout
        assert "99.81%" in stdout
        assert "99.64%" in stdout
        with open(out_json, encoding="utf-8") as fh:
            table = json.load(fh)
        percents = [row["percent_of_reference"] for row in table["rows"]]
        assert percents[0] == pytest.approx(100.0)
        assert percents[1] == pytest.approx(99.808, abs=0.01)

    def test_identical_reports_read_100_percent(self, tmp_path, capsys):
        a = write_report(str(tmp_path / "a.json"), "wf",
                         MeasurementMethod.SHELL_WRAP, 1234.5)
        b = write_report(str(tmp_path / "b.json"), "wf",
                         MeasurementMethod.SHELL_WRAP, 1234.5)
        assert main(["compare", a, b]) == 0
        assert capsys.readouterr().out.count("100.00%") == 2

    def test_zero_reference_is_runtime_error(self, tmp_path, capsys):
        a = write_report(str(tmp_path / "a.json"), "wf",
                         MeasurementMethod.SHELL_WRAP, 0.0)
        b = write_report(str(tmp_path / "b.json"), "wf",
                         MeasurementMethod.SIGNAL_WORKFLOW, 100.0)
        assert main(["compare", a, b]) == 3
        assert "reference total is zero" in capsys.readouterr().err

    def test_workflow_mismatch_is_runtime_error(self, tmp_path, capsys):
        a = write_report(str(tmp_path / "a.json"), "wf-one",
                         MeasurementMethod.SHELL_WRAP, 100.0)
        b = write_report(str(tmp_path / "b.json"), "wf-two",
                         MeasurementMethod.SHELL_WRAP, 100.0)
        assert main(["compare", a, b]) == 3
        assert "mismatch" in capsys.readouterr().err

    def test_invalid_report_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["compare", str(bad)]) == 2

    def test_total_no_float_holds_exits_2(self, tmp_path):
        path = write_report(str(tmp_path / "a.json"), "wf",
                            MeasurementMethod.SHELL_WRAP, 1.0)
        doc = read_json(path)
        doc["total_joules"] = 10**400
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert "bad report document" in usage_error_without_traceback(
            "compare", path, path)

    @pytest.mark.parametrize("flagged_first", [True, False])
    def test_flagged_input_is_named_and_exits_4(self, tmp_path, capsys,
                                                flagged_first):
        clean = write_report(str(tmp_path / "clean.json"), "wf",
                             MeasurementMethod.SHELL_WRAP, 100.0)
        flagged = str(tmp_path / "flagged.json")
        with open(flagged, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(EnergyReport(
                workflow_id="wf", method=MeasurementMethod.SIGNAL_PLUGIN,
                total_joules=90.0,
                per_node={"n1": {RaplDomain.PACKAGE: 90.0}},
                flags=frozenset({"clipped_window", "unsafe_gap"}))))
        paths = [flagged, clean] if flagged_first else [clean, flagged]
        assert main(["compare", *paths]) == 4
        captured = capsys.readouterr()
        assert captured.out.count("%") == 2
        assert warnings_in(captured.err) == [
            f"wattflow: warning: {flagged} carries flags: "
            f"clipped_window, unsafe_gap"]


class TestRunCommand:
    def test_wrapped_run_via_cli(self, tmp_path, capsys):
        config = make_run_config(tmp_path, nodes=("n1",),
                                 workflow_cmd="sleep 0.5",
                                 session_id="cli-run")
        doc = {
            "workflow_cmd": config.workflow_cmd,
            "session_id": config.session_id,
            "output_dir": config.output_dir,
            "startup_timeout_s": config.startup_timeout_s,
            "stop_timeout_s": config.stop_timeout_s,
            "agents": [
                {"node_id": a.node_id, "exec_template": a.exec_template,
                 "agent_cmd": a.agent_cmd, "signal_dir": a.signal_dir,
                 "log_dir": a.log_dir}
                for a in config.agents],
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["run", "--config", str(cfg_path)])
        stdout = capsys.readouterr().out
        assert code == 0
        report_path = stdout.strip().splitlines()[-1]
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["coverage_fraction"] == 1.0
        assert report["method"] == "shell-wrap"

    def test_run_calls_the_run_wrapped_of_the_cli_module(self, tmp_path,
                                                       monkeypatch, capsys):
        # The benchmark stamps each run by replacing cli.run_wrapped, so
        # cmd_run must look the name up when it runs.
        config = prewritten_run_config(tmp_path)
        calls = []

        def fake(run_config):
            calls.append(run_config)
            return SimpleNamespace(
                report_path="fake-report.json", workflow_exit_code=0,
                report=SimpleNamespace(flags=frozenset()))
        monkeypatch.setattr(cli, "run_wrapped", fake)
        code = main(["run", "--config", write_run_config(tmp_path, config)])
        assert code == 0
        assert calls == [config]
        assert capsys.readouterr().out == "fake-report.json\n"

    def test_failing_workflow_reports_then_exit3(self, tmp_path, capsys):
        config = make_run_config(tmp_path, nodes=("n1",),
                                 workflow_cmd="false",
                                 session_id="cli-fail")
        doc = {
            "workflow_cmd": "false",
            "session_id": "cli-fail",
            "output_dir": config.output_dir,
            "agents": [
                {"node_id": a.node_id, "agent_cmd": a.agent_cmd,
                 "signal_dir": a.signal_dir, "log_dir": a.log_dir}
                for a in config.agents],
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["run", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == 3
        report_path = captured.out.strip().splitlines()[-1]
        with open(report_path, encoding="utf-8") as fh:
            assert json.load(fh)["status"] == "failed"

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["run", "--config",
                     str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize("key, text", [
        ("startup_timeout_s", "NaN"), ("startup_timeout_s", "1e400"),
        ("stop_timeout_s", "NaN"), ("stop_timeout_s", "1e400")])
    def test_non_finite_timeout_exits_2_at_load(self, tmp_path, capsys,
                                                key, text):
        # A NaN deadline never passes, so it would wait forever.
        doc = {"workflow_cmd": "true", "session_id": "s1",
               "output_dir": str(tmp_path / "out"), key: "VALUE",
               "agents": [{"node_id": "n1", "agent_cmd": "true",
                           "signal_dir": str(tmp_path),
                           "log_dir": str(tmp_path)}]}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(doc).replace('"VALUE"', text),
                            encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    def test_timeout_no_float_holds_exits_2(self, tmp_path):
        doc = {"workflow_cmd": "true", "session_id": "s1",
               "output_dir": str(tmp_path / "out"),
               "startup_timeout_s": 10**400,
               "agents": [{"node_id": "n1", "agent_cmd": "true",
                           "signal_dir": str(tmp_path),
                           "log_dir": str(tmp_path)}]}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert "bad run config" in usage_error_without_traceback(
            "run", "--config", str(cfg_path))


class TestUsage:
    def test_importing_the_cli_leaves_out_what_the_agent_does_not_use(self):
        # ``wattflow agent`` starts sooner without them.
        lazy = ["wattflow.accounting", "wattflow.orchestrate",
                "wattflow.simulate", "wattflow.trace"]
        code = ("import sys, wattflow.cli; "
                "print([m for m in %r if m in sys.modules])" % (lazy,))
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=60,
                                check=True)
        assert result.stdout.strip() == "[]"

    def test_argparse_usage_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["report"])          # missing required flags
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2

    def test_bad_agent_config_is_usage_error(self, tmp_path):
        path = tmp_path / "agent.json"
        path.write_text(json.dumps({"node_id": "n1"}), encoding="utf-8")
        assert main(["agent", "--config", str(path)]) == 2

    def test_agent_config_path_missing(self, tmp_path):
        assert main(["agent", "--config",
                     str(tmp_path / "none.json")]) == 2

    def agent_config(self, tmp_path, node_id: str, backend: dict,
                     unit_j: float = 1e-6) -> str:
        (tmp_path / "logs").mkdir(exist_ok=True)
        path = tmp_path / "agent.json"
        path.write_text(json.dumps({
            "node_id": node_id, "log_dir": str(tmp_path / "logs"),
            "signal_dir": str(tmp_path / "signals"),
            "domains": [{"domain": "package", "bit_width": 32,
                         "unit_j": unit_j, "backend": backend}]}),
            encoding="utf-8")
        return str(path)

    def test_powercap_unit_other_than_microjoules_refused(self, tmp_path,
                                                          capsys):
        # Every read of the zone would be refused: the session log would
        # hold only gap markers, so the config is refused at start.
        zone = tmp_path / "zone"
        zone.mkdir()
        (zone / "energy_uj").write_text("5\n")
        (zone / "max_energy_range_uj").write_text(f"{2**32 - 1}\n")
        backend = {"kind": "powercap", "zone_dir": str(zone)}
        assert main(["agent", "--config", self.agent_config(
            tmp_path, "n1", backend, unit_j=1e-3)]) == 2
        assert "unit_j 0.001" in capsys.readouterr().err
        assert os.listdir(tmp_path / "logs") == []

    @pytest.mark.parametrize("backend, needle", [
        ({"kind": "powercap", "base_path": "absent"},
         "powercap tree absent"),
        ({"kind": "powercap", "zone_dir": "absent"},
         "no such counter file"),
    ])
    def test_backend_that_cannot_be_built_fails_start(self, tmp_path, capsys,
                                                      backend, needle):
        backend = {k: str(tmp_path / v) if k != "kind" else v
                   for k, v in backend.items()}
        assert main(["agent", "--config", self.agent_config(
            tmp_path, "n1", backend)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("wattflow: error: ") and needle in err[0]
        assert os.listdir(tmp_path / "logs") == []

    @pytest.mark.parametrize("node_id", ["n\u0153ud", "my node"])
    def test_node_id_the_log_cannot_carry_refused(self, tmp_path, capsys,
                                                  node_id):
        # Outside ASCII the log header cannot be encoded; a space splits
        # the header's key=value tokens.
        backend = {"kind": "mock", "segments": [[60.0, 100.0]]}
        assert main(["agent", "--config", self.agent_config(
            tmp_path, node_id, backend)]) == 2
        assert "not filesystem-safe" in capsys.readouterr().err


def _flagged_report_inputs(tmp_path) -> tuple[str, str]:
    """A one-node log over 60 s and a TSV trace whose report carries three
    flags and whose tasks carry two notes each: shared and sub-resolution
    windows, shared and clipped ones."""
    logs = tmp_path / "logs"
    logs.mkdir()
    specs = {d: CounterSpec(domain=d, bit_width=32, energy_unit_joules=1e-6)
             for d in (RaplDomain.PACKAGE, RaplDomain.DRAM)}
    writer = LogWriter(str(logs / "rapl_n1_hs.csv"), "n1", specs,
                       epoch_wall_ns=ORIGIN)
    for k in range(61):
        writer.record(k * S, RaplDomain.PACKAGE, k * 70_000_000 % 2**32)
        writer.record(k * S, RaplDomain.DRAM, k * 9_000_000)
    writer.close(LogStatus.CLOSED)
    ms = ORIGIN // 1_000_000
    rows = [["task_id", "name", "status", "start", "complete", "realtime",
             "%cpu", "hostname"]]
    for tid, lo, hi, cpu, host in (("t1", 5, 35, "100%", "n1"),
                                   ("t2", 20, 50, "250%", "n1"),
                                   ("t3", 45, 70, "80%", "n1"),
                                   ("t4", 30, 30, "100%", "n1"),
                                   ("u1", 10, 20, "100%", "-")):
        rows.append([tid, "step", "COMPLETED", str(ms + lo * 1000),
                     str(ms + hi * 1000), f"{hi - lo}s", cpu, host])
    rows.append(["a1", "step", "ABORTED", "-", "-", "-", "-", "n1"])
    trace = tmp_path / "trace.tsv"
    trace.write_text("".join("\t".join(row) + "\n" for row in rows),
                     encoding="utf-8")
    return str(logs), str(trace)


class TestReportBytes:
    def test_same_bytes_under_every_hash_seed_and_output(self, tmp_path):
        # Flags and notes are sets shared among tasks, and the report is
        # written piece by piece: neither the hash seed nor the output
        # may change a byte.
        logs, trace = _flagged_report_inputs(tmp_path)
        argv = [sys.executable, "-m", "wattflow.cli", "report",
                "--logs", logs, "--trace", trace]
        texts = set()
        for seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=os.path.join(ROOT, "src"))
            out = tmp_path / f"report{seed}.json"
            to_file = subprocess.run(argv + ["--out", str(out)], env=env,
                                     capture_output=True, timeout=60)
            to_stdout = subprocess.run(argv, env=env, capture_output=True,
                                       timeout=60)
            assert (to_file.returncode, to_stdout.returncode) == (4, 4), \
                to_stdout.stderr
            assert to_stdout.stdout == out.read_bytes()
            texts.add(to_stdout.stdout)
        assert len(texts) == 1
        report = json.loads(texts.pop())
        assert report["flags"] == ["clipped_window", "no_timing",
                                   "unknown_node"]
        notes = {t["task_id"]: t["notes"] for t in report["per_task"]}
        assert notes["t3"] == ["clipped_window", "shared_window"]
        assert notes["t4"] == ["shared_window", "sub_resolution"]


class TestUnknownNode:
    def test_hostname_less_trace_is_flagged_not_fatal(self, tmp_path,
                                                      capsys):
        # The engine's default trace fields carry no hostname.
        out = run_simulate(tmp_path)
        ms = ORIGIN // 1_000_000
        header = "task_id\tname\tstatus\tstart\tcomplete\trealtime\t%cpu"
        rows = ["\t".join([tid, tid, "COMPLETED", str(ms + lo * 1000),
                           str(ms + hi * 1000), f"{hi - lo}s", "100%"])
                for tid, lo, hi in (("t1", 0, 30), ("t2", 30, 60))]
        trace_path = tmp_path / "trace.txt"
        trace_path.write_text("\n".join([header] + rows) + "\n",
                              encoding="utf-8")
        target = tmp_path / "report.json"
        capsys.readouterr()
        code = main(["report", "--logs", out, "--trace", str(trace_path),
                     "--out", str(target)])
        assert code == 4
        assert "partial" in capsys.readouterr().err
        report = json.loads(target.read_text(encoding="utf-8"))
        assert report["flags"] == ["unknown_node"]
        assert [(t["task_id"], t["joules_by_domain"], t["notes"])
                for t in report["per_task"]] == [
            ("t1", {}, ["unknown_node"]), ("t2", {}, ["unknown_node"])]
        # Conservation: nothing attributed, the node total unattributed.
        assert report["unattributed_joules"] == pytest.approx(
            report["total_joules"], rel=1e-12)
        assert report["total_joules"] == pytest.approx(
            40.0 * 60 + 100.0 * 30 + 70.0 * 30, rel=1e-3)


class TestCachedTask:
    def test_cached_row_takes_no_energy(self, tmp_path, capsys):
        # rnaseq_like's one task covers the run; a cached task inside it
        # did not run in this session and must not take a share.
        out = str(tmp_path / "sim")
        assert main(["simulate", "--scenario",
                     os.path.join(ROOT, "scenarios", "rnaseq_like.json"),
                     "--out", out]) == 0
        plain = os.path.join(out, "trace_rnaseq_like.json")
        doc = read_json(plain)
        doc["tasks"].append({
            "task_id": "c1", "name": "cached-step", "node_id": "n1",
            "start_wall_ns": doc["submitted_wall_ns"] + 300 * S,
            "end_wall_ns": doc["submitted_wall_ns"] + 900 * S,
            "cpu_time_s": 600.0, "status": "cached"})
        cached = tmp_path / "trace_cached.json"
        cached.write_text(json.dumps(doc), encoding="utf-8")
        reports = []
        for trace_path in (plain, str(cached)):
            target = str(tmp_path / "report.json")
            capsys.readouterr()
            assert main(["report", "--logs", out, "--trace", trace_path,
                         "--out", target]) == 0
            assert warnings_in(capsys.readouterr().err) == []
            reports.append(read_json(target))
        without, with_cached = reports
        assert [t for t in with_cached["per_task"] if t["task_id"] == "c1"] \
            == [{"task_id": "c1", "joules_by_domain": {}, "estimated": True,
                 "notes": ["cached"]}]
        with_cached["per_task"] = [t for t in with_cached["per_task"]
                                   if t["task_id"] != "c1"]
        assert with_cached == without


    def test_cached_row_does_not_widen_the_window(self, tmp_path, capsys):
        # A resumed run lists cached tasks with the times of the earlier
        # run that computed them; one dated a day earlier must not stretch
        # the workflow window past the logs.
        out = str(tmp_path / "sim")
        assert main(["simulate", "--scenario",
                     os.path.join(ROOT, "scenarios", "rnaseq_like.json"),
                     "--out", out]) == 0
        ms = ORIGIN // 1_000_000
        day_ms = 86_400_000
        header = "task_id\tname\tstatus\tstart\tcomplete\trealtime" \
                 "\t%cpu\thostname"
        ran = "\t".join(["t1", "uniform-load", "COMPLETED", str(ms),
                         str(ms + 1_500_000), "1500s", "200%", "n1"])
        cached = "\t".join(["c1", "cached-step", "CACHED",
                            str(ms - day_ms), str(ms - day_ms + 600_000),
                            "600s", "100%", "n1"])
        reports = []
        for name, rows in (("plain.txt", [ran]),
                           ("cached.txt", [cached, ran])):
            trace_path = tmp_path / name
            trace_path.write_text("\n".join([header] + rows) + "\n",
                                  encoding="utf-8")
            target = str(tmp_path / f"{name}.json")
            capsys.readouterr()
            assert main(["report", "--logs", out, "--trace",
                         str(trace_path), "--out", target]) == 0
            assert warnings_in(capsys.readouterr().err) == []
            reports.append(read_json(target))
        without, with_cached = reports
        assert with_cached["total_joules"] == without["total_joules"]
        assert without["total_joules"] == pytest.approx(225_000.0,
                                                        rel=1e-6)
        assert [t for t in with_cached["per_task"] if t["task_id"] == "c1"] \
            == [{"task_id": "c1", "joules_by_domain": {}, "estimated": True,
                 "notes": ["cached"]}]


class TestUntimedRow:
    @pytest.mark.parametrize("dashed", ["start", "complete", "realtime",
                                        "%cpu", "all"])
    def test_dash_field_row_is_listed_and_flagged(self, tmp_path, capsys,
                                                   dashed):
        # The engine writes "-" for a field it did not record, as for a
        # task aborted before it ran.  The row's task takes no energy and
        # stays out of the workflow window, and the report is flagged.
        out = str(tmp_path / "sim")
        assert main(["simulate", "--scenario",
                     os.path.join(ROOT, "scenarios", "rnaseq_like.json"),
                     "--out", out]) == 0
        ms = ORIGIN // 1_000_000
        columns = ["task_id", "name", "status", "start", "complete",
                   "realtime", "%cpu", "hostname"]
        ran = ["t1", "uniform-load", "COMPLETED", str(ms),
               str(ms + 1_500_000), "1500s", "200%", "n1"]
        aborted = ["a1", "aborted-step", "ABORTED", str(ms - 86_400_000),
                   str(ms + 3_000_000), "600s", "100%", "n1"]
        for i, column in enumerate(columns):
            if column == dashed or (dashed == "all" and 3 <= i <= 6):
                aborted[i] = "-"
        reports, codes = [], []
        for name, rows in (("plain", [ran]), ("aborted", [ran, aborted])):
            (tmp_path / name).mkdir()
            trace_path = tmp_path / name / "trace.tsv"
            trace_path.write_text("".join("\t".join(row) + "\n" for row in
                                          [columns] + rows),
                                  encoding="utf-8")
            target = str(tmp_path / f"{name}.json")
            capsys.readouterr()
            codes.append(main(["report", "--logs", out, "--trace",
                               str(trace_path), "--out", target]))
            assert warnings_in(capsys.readouterr().err) == (
                partial_warning("no_timing") if rows[1:] else [])
            reports.append(read_json(target))
        assert codes == [0, 4]
        without, with_aborted = reports
        assert with_aborted["flags"] == ["no_timing"]
        assert [t for t in with_aborted["per_task"]
                if t["task_id"] == "a1"] == [
            {"task_id": "a1", "joules_by_domain": {}, "estimated": True,
             "notes": ["no_timing"]}]
        # The same window and split: only the listing and the flag differ.
        with_aborted["per_task"] = [t for t in with_aborted["per_task"]
                                    if t["task_id"] != "a1"]
        del with_aborted["flags"]
        assert with_aborted == without
        assert without["total_joules"] == pytest.approx(225_000.0, rel=1e-6)
        # Conservation: tasks plus unattributed make the total.
        attributed = sum(sum(t["joules_by_domain"].values())
                         for t in without["per_task"])
        assert attributed + without["unattributed_joules"] == \
            pytest.approx(without["total_joules"], rel=1e-12)

    def test_trace_with_no_timed_row_exits_2(self, tmp_path, capsys):
        out = run_simulate(tmp_path)
        trace_path = tmp_path / "aborted.tsv"
        trace_path.write_text(
            "task_id\tname\tstatus\tstart\tcomplete\trealtime\t%cpu\n"
            "a1\tstep\tABORTED\t-\t-\t-\t-\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--logs", out, "--trace",
                     str(trace_path)]) == 2
        assert "no row with timing" in capsys.readouterr().err


class TestTraceOffsetNote:
    """A trace window outside a node's log span gets a note naming the
    offset, and for a TSV, how its timestamps are read."""

    @pytest.mark.parametrize("suffix, shift_s, code, last", [
        # Written two zones east of UTC: no overlap with the log.
        (".tsv", 7200, 3,
         "wattflow: error: no usable sample log for node(s): n1"),
        # A clock ten minutes fast: the window is clipped.
        (".tsv", 600, 4, partial_warning("clipped_window")[0]),
        (".json", 600, 4, partial_warning("clipped_window")[0]),
    ])
    def test_shifted_trace_names_the_offset(self, tmp_path, capsys, suffix,
                                            shift_s, code, last):
        out = str(tmp_path / "sim")
        assert main(["simulate", "--scenario",
                     os.path.join(ROOT, "scenarios", "rnaseq_like.json"),
                     "--out", out]) == 0
        trace_path = tmp_path / f"shifted{suffix}"
        if suffix == ".tsv":
            # The human-readable timestamps of rnaseq_like's one task.
            start = datetime.fromtimestamp(ORIGIN // S + shift_s,
                                           timezone.utc)
            stamps = [(start + timedelta(seconds=s)).strftime(
                "%Y-%m-%d %H:%M:%S.000") for s in (0, 1500)]
            trace_path.write_text(
                "task_id\tname\tstatus\tstart\tcomplete\trealtime\t%cpu\t"
                "hostname\n"
                f"t1\tuniform-load\tCOMPLETED\t{stamps[0]}\t{stamps[1]}\t"
                "25m\t200%\tn1\n", encoding="utf-8")
        else:
            trace = parse_generic_trace(
                os.path.join(out, "trace_rnaseq_like.json"))
            write_generic_trace(dataclasses.replace(
                trace, submitted_wall_ns=trace.submitted_wall_ns
                + shift_s * S,
                finished_wall_ns=trace.finished_wall_ns + shift_s * S,
                tasks=tuple(dataclasses.replace(
                    t, start_wall_ns=t.start_wall_ns + shift_s * S,
                    end_wall_ns=t.end_wall_ns + shift_s * S)
                    for t in trace.tasks)), str(trace_path))
        capsys.readouterr()
        assert main(["report", "--logs", out, "--trace", str(trace_path),
                     "--out", str(tmp_path / "report.json")]) == code
        note = ("wattflow: note: the trace window is not inside node n1's "
                f"log span; its middle lies {shift_s}.0 s after the span's")
        if suffix == ".tsv":
            note += ("; TSV timestamps are read as UTC, and Nextflow's "
                     "trace.raw = true writes epoch ms")
        assert capsys.readouterr().err.splitlines() == [note, last]


def _os_error_case(tmp_path, case: str) -> list[str]:
    """Arguments for one subcommand that meets an OS error."""
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory\n", encoding="utf-8")
    if case == "report-out":
        out = run_simulate(tmp_path)
        return ["report", "--logs", out,
                "--trace", os.path.join(out, "trace_demo.json"),
                "--out", str(tmp_path)]
    if case == "compare-out":
        a = write_report(str(tmp_path / "a.json"), "wf",
                         MeasurementMethod.SHELL_WRAP, 10.0)
        return ["compare", a, "--out", str(blocker / "table.json")]
    if case == "simulate-out":
        return ["simulate", "--scenario", write_scenario(tmp_path),
                "--out", str(blocker / "sim")]
    doc = {"workflow_cmd": "true", "session_id": "os",
           "output_dir": str(tmp_path / "out"),
           "startup_timeout_s": 1.0, "stop_timeout_s": 1.0,
           "agents": [{"node_id": "n1", "agent_cmd": "true",
                       "signal_dir": str(tmp_path / "no-such-dir"),
                       "log_dir": str(tmp_path)}]}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    if case == "run-out":
        return ["run", "--config", str(cfg_path), "--resume", "os",
                "--out", str(blocker / "out")]
    if case == "run-signal-dir":
        return ["run", "--config", str(cfg_path)]
    assert case == "resume-write"
    (tmp_path / "out" / "report_os.json").mkdir(parents=True)
    return ["run", "--config", str(cfg_path), "--resume", "os"]


class TestOsErrors:
    @pytest.mark.parametrize("case, code", [
        ("report-out", 2), ("compare-out", 2), ("simulate-out", 2),
        ("run-out", 2), ("run-signal-dir", 3), ("resume-write", 3)])
    def test_exit_code_and_one_error_line(self, tmp_path, capsys, case,
                                          code):
        argv = _os_error_case(tmp_path, case)
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines()
                if line.startswith("wattflow: error:")]


class TestPartialDataExit:
    """``report`` and ``run`` exit 4 exactly when the report has flags."""

    def test_shifted_trace_clips_window(self, tmp_path, capsys):
        # The log covers 62 % of the shifted workflow window.
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario",
                     os.path.join(ROOT, "scenarios", "rnaseq_like.json"),
                     "--out", str(out)]) == 0
        trace = read_json(out / "trace_rnaseq_like.json")
        for key in ("submitted_wall_ns", "finished_wall_ns"):
            trace[key] += 600 * S
        for task in trace["tasks"]:
            task["start_wall_ns"] += 600 * S
            task["end_wall_ns"] += 600 * S
        shifted = tmp_path / "shifted.json"
        shifted.write_text(json.dumps(trace), encoding="utf-8")
        target = tmp_path / "report.json"
        capsys.readouterr()
        code = main(["report", "--logs", str(out), "--trace", str(shifted),
                     "--out", str(target)])
        assert code == 4
        assert warnings_in(capsys.readouterr().err) == \
            partial_warning("clipped_window")
        report = read_json(target)
        assert report["flags"] == ["clipped_window"]
        assert report["total_joules"] == pytest.approx(135_155.0)

    def test_truncated_log_names_its_node(self, tmp_path, capsys):
        logs_dir = tmp_path / "logs"
        logs_dir.mkdir()
        spec = CounterSpec(domain=RaplDomain.PACKAGE, bit_width=32,
                           energy_unit_joules=1e-6)
        writer = LogWriter(str(logs_dir / "rapl_alpha_sess.csv"), "alpha",
                           {RaplDomain.PACKAGE: spec},
                           epoch_wall_ns=ORIGIN)
        for k in range(11):
            writer.record(k * S, RaplDomain.PACKAGE, k * 50_000_000)
        writer.close(LogStatus.TRUNCATED)
        trace = WorkflowTrace(
            workflow_id="wf-t", submitted_wall_ns=ORIGIN,
            finished_wall_ns=ORIGIN + 10 * S,
            tasks=(TaskRecord(
                task_id="t", name="t", node_id="alpha",
                start_wall_ns=ORIGIN, end_wall_ns=ORIGIN + 10 * S,
                cpu_time_s=10.0, status=TaskStatus.COMPLETED),))
        trace_path = str(tmp_path / "trace.json")
        write_generic_trace(trace, trace_path)
        code = main(["report", "--logs", str(logs_dir),
                     "--trace", trace_path])
        captured = capsys.readouterr()
        assert code == 4
        assert warnings_in(captured.err) == \
            partial_warning("flagged_log:alpha")
        report = json.loads(captured.out)
        assert report["flags"] == ["flagged_log:alpha"]
        assert report["total_joules"] == pytest.approx(500.0)

    @staticmethod
    def rnaseq_with_n9_log(tmp_path, epoch_wall_ns: int,
                           record_times_s: tuple[int, ...]):
        """``rnaseq_like`` simulated, plus a closed log from node n9."""
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario",
                     os.path.join(ROOT, "scenarios", "rnaseq_like.json"),
                     "--out", str(out)]) == 0
        spec = CounterSpec(domain=RaplDomain.PACKAGE, bit_width=32,
                           energy_unit_joules=1e-6)
        writer = LogWriter(str(out / "rapl_n9_rnaseq_like.csv"), "n9",
                           {RaplDomain.PACKAGE: spec},
                           epoch_wall_ns=epoch_wall_ns)
        for k, t_s in enumerate(record_times_s):
            writer.record(t_s * S, RaplDomain.PACKAGE, k * 1_000_000)
        writer.close(LogStatus.CLOSED)
        return out, out / "trace_rnaseq_like.json"

    def test_one_record_log_on_idle_node_is_missing(self, tmp_path,
                                                     capsys):
        out, trace = self.rnaseq_with_n9_log(tmp_path, ORIGIN, (0,))
        target = tmp_path / "report.json"
        capsys.readouterr()
        code = main(["report", "--logs", str(out), "--trace", str(trace),
                     "--out", str(target)])
        assert code == 4
        assert warnings_in(capsys.readouterr().err) == \
            partial_warning("missing_log:n9")
        report = read_json(target)
        assert report["flags"] == ["missing_log:n9"]
        assert sorted(report["per_node"]) == ["n1"]
        assert report["total_joules"] == pytest.approx(225_000.0)

    def test_log_ending_before_the_workflow_is_missing(self, tmp_path,
                                                       capsys):
        out, trace = self.rnaseq_with_n9_log(tmp_path, ORIGIN - 100 * S,
                                             (0, 10))
        target = tmp_path / "report.json"
        code = main(["report", "--logs", str(out), "--trace", str(trace),
                     "--out", str(target)])
        assert code == 4
        report = read_json(target)
        assert "missing_log:n9" in report["flags"]
        assert sorted(report["per_node"]) == ["n1"]

    def test_tasks_on_node_with_one_record_log_exit_3(self, tmp_path,
                                                      capsys):
        out, trace_path = self.rnaseq_with_n9_log(tmp_path, ORIGIN, (0,))
        trace = read_json(trace_path)
        trace["tasks"].append(dict(trace["tasks"][0], task_id="on-n9",
                                   node_id="n9"))
        moved = tmp_path / "moved.json"
        moved.write_text(json.dumps(trace), encoding="utf-8")
        capsys.readouterr()
        code = main(["report", "--logs", str(out), "--trace", str(moved)])
        assert code == 3
        assert "n9" in capsys.readouterr().err

    @pytest.mark.parametrize("tail, flag", [
        ("#wattflow-end status=truncated\n", "flagged_log:n1"),
        (GAP_THEN_CLOSED, "unsafe_gap")], ids=["truncated", "gap"])
    def test_run_over_flagged_log(self, tmp_path, capsys, tail, flag):
        config = prewritten_run_config(tmp_path, {"n1": tail, "n2": CLOSED})
        capsys.readouterr()
        code = main(["run", "--config", write_run_config(tmp_path, config)])
        captured = capsys.readouterr()
        assert code == 4
        assert warnings_in(captured.err) == partial_warning(flag)
        report = read_json(captured.out.strip().splitlines()[-1])
        assert report["flags"] == [flag]
        assert report["total_joules"] == pytest.approx(200.0)

    def test_failed_workflow_exit_wins_over_flags(self, tmp_path, capsys):
        config = dataclasses.replace(
            prewritten_run_config(tmp_path, {
                "n1": "#wattflow-end status=truncated\n", "n2": CLOSED}),
            workflow_cmd="false")
        capsys.readouterr()
        code = main(["run", "--config", write_run_config(tmp_path, config)])
        captured = capsys.readouterr()
        assert code == 3
        assert "workflow exited 1" in captured.err
        report = read_json(captured.out.strip().splitlines()[-1])
        assert report["flags"] == ["flagged_log:n1"]

    def test_resume_over_gap_marked_closed_logs_exits_0(self, tmp_path,
                                                        capsys):
        # Every resumed report is flagged; a salvage with a usable log
        # from every node still succeeds.
        config = closed_logs_config(
            tmp_path, {"n1": GAP_THEN_CLOSED, "n2": GAP_THEN_CLOSED})
        capsys.readouterr()
        code = main(["run", "--config", write_run_config(tmp_path, config),
                     "--resume", "rs"])
        captured = capsys.readouterr()
        assert code == 0
        assert warnings_in(captured.err) == []
        report = read_json(captured.out.strip().splitlines()[-1])
        assert report["flags"] == ["resumed", "unsafe_gap"]

    @pytest.mark.parametrize("resume", [True, False])
    def test_short_log_is_missing_and_report_written(self, tmp_path, capsys,
                                                     resume):
        # n2's agent died after one record: too few to integrate.
        config = prewritten_run_config(
            tmp_path, {"n1": CLOSED, "n2": CLOSED}, stop_timeout_s=0.0)
        short = tmp_path / "agent_logs" / "rapl_n2_rs.csv"
        header = short.read_text().splitlines()[0]
        short.write_text(f"{header}\n0,package,0\n")
        argv = ["run", "--config", write_run_config(tmp_path, config)]
        capsys.readouterr()
        code = main(argv + ["--resume", "rs"] if resume else argv)
        captured = capsys.readouterr()
        assert code == 4
        report = read_json(tmp_path / "out" / "report_rs.json")
        flags = ["missing_log:n2"] + (["resumed"] if resume else [])
        assert report["flags"] == flags
        assert warnings_in(captured.err) == partial_warning(*flags)
        assert sorted(report["per_node"]) == ["n1"]
        assert report["total_joules"] == pytest.approx(100.0)


def test_readme_lists_exactly_the_report_flags():
    """README's "Report flags" table and the code's FLAG_* names agree."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n## Report flags\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `([a-z_]+)(?::<node>)?` \|", section,
                            flags=re.MULTILINE)
    constants = [value for name, value in vars(accounting).items()
                 if name.startswith("FLAG_")]
    assert sorted(documented) == sorted(constants)
