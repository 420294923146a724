"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import os

import pytest

from wattflow.accounting import (
    EnergyReport,
    MeasurementMethod,
    report_to_json,
)
from wattflow.cli import main
from wattflow.counter import CounterSpec, RaplDomain
from wattflow.logfile import LogStatus, LogWriter
from wattflow.trace import (
    TaskRecord,
    TaskStatus,
    WorkflowTrace,
    write_generic_trace,
)

from test_orchestrate import make_run_config, write_agent_config

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


class TestReportCommand:
    def test_report_from_simulated_logs(self, tmp_path, capsys):
        out = run_simulate(tmp_path)
        capsys.readouterr()
        code = main(["report", "--logs", out,
                     "--trace", os.path.join(out, "trace_demo.json"),
                     "--policy", "cputime"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
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


class TestUsage:
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
