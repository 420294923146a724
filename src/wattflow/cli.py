"""Command-line interface.

Subcommands:
  agent     run a per-node sampling agent from a JSON config
  run       execute a workflow command bracketed by measurement
  report    compute per-task energy from collected logs and a trace
  compare   tabulate reports against a reference report
  simulate  synthesize a scenario, evaluate all methods, emit artifacts

Exit codes: 0 success; 2 usage, malformed input documents, or an input
or output path that cannot be read or written; 3 runtime failure (agent
start, missing node log, workflow mismatch, nonzero workflow exit, an OS
error while an agent, a run, or a resume is under way); 4 report
produced but from partial or flagged data.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from typing import Sequence

from .accounting import (
    AttributionPolicy,
    MeasurementMethod,
    NodeEnergyLog,
    PolicyKind,
    assemble_report,
    load_report,
    report_to_json,
)
from .agent import SamplerAgent, load_config
from .errors import (
    InvalidArgumentError,
    ParseError,
    SchemaViolationError,
    WattflowError,
)
from .logfile import parse_log
from .orchestrate import load_run_config, resume, run_wrapped
from .simulate import (
    evaluate_methods,
    load_scenario,
    synthesize_counters,
    write_log_files,
)
from .trace import (
    FLAG_UNKNOWN_NODE,
    parse_generic_trace,
    parse_nextflow_trace,
    write_generic_trace,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_PARTIAL = 4

_USAGE_ERRORS = (SchemaViolationError, InvalidArgumentError, ParseError)


def _fail(message: str, code: int) -> int:
    print(f"wattflow: error: {message}", file=sys.stderr)
    return code


def cmd_agent(args: argparse.Namespace) -> int:
    try:
        config, backends = load_config(args.config,
                                       start_ns=time.monotonic_ns())
    except _USAGE_ERRORS as exc:
        return _fail(str(exc), EXIT_USAGE)
    agent = SamplerAgent(config, backends)
    agent.install_signal_handlers()
    logger.info("agent for node %s sampling every %d ms",
                config.node_id, config.interval_ms)
    try:
        agent.run()
    except (WattflowError, OSError) as exc:
        return _fail(str(exc), EXIT_RUNTIME)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    try:
        config = load_run_config(args.config, workflow_cmd=args.cmd,
                                 session_id=args.resume or args.session,
                                 output_dir=args.out)
    except _USAGE_ERRORS as exc:
        return _fail(str(exc), EXIT_USAGE)
    os.makedirs(config.output_dir, exist_ok=True)
    try:
        result = resume(config) if args.resume else run_wrapped(config)
    except (WattflowError, OSError) as exc:
        return _fail(str(exc), EXIT_RUNTIME)
    print(result.report_path)
    missing = [flag for flag in result.report.flags
               if flag.startswith("missing_log")]
    if args.resume:
        return EXIT_PARTIAL if missing else EXIT_OK
    if result.workflow_exit_code != 0:
        return _fail(
            f"workflow exited {result.workflow_exit_code}; "
            f"report written to {result.report_path}", EXIT_RUNTIME)
    if missing:
        return _fail(f"logs missing: {', '.join(sorted(missing))}",
                     EXIT_PARTIAL)
    return EXIT_OK


def _load_logs(logs_dir: str, session: str | None
               ) -> tuple[dict[str, NodeEnergyLog], bool]:
    """Parse every session log in a directory into per-node logs.

    Returns the logs plus whether any of them carried gap, truncation, or
    reap flags.  Multiple sessions in one directory need ``--session``.
    """
    parsed_logs = []
    for name in sorted(os.listdir(logs_dir)):
        if name.startswith("rapl_") and name.endswith(".csv"):
            parsed_logs.append(parse_log(os.path.join(logs_dir, name)))
    if session is not None:
        parsed_logs = [p for p in parsed_logs if p.session_id == session]
    sessions = {p.session_id for p in parsed_logs}
    if not parsed_logs:
        raise InvalidArgumentError(
            f"no session logs found in {logs_dir}"
            + (f" for session {session}" if session else ""))
    if len(sessions) > 1:
        raise InvalidArgumentError(
            f"multiple sessions in {logs_dir}: "
            f"{', '.join(sorted(sessions))}; pick one with --session")
    flagged = any(p.flagged for p in parsed_logs)
    logs: dict[str, NodeEnergyLog] = {}
    for p in parsed_logs:
        if p.node_id in logs:
            raise InvalidArgumentError(
                f"two logs for node {p.node_id} in session "
                f"{p.session_id}")
        logs[p.node_id] = NodeEnergyLog.from_parsed(p)
    return logs, flagged


def cmd_report(args: argparse.Namespace) -> int:
    try:
        logs, logs_flagged = _load_logs(args.logs, args.session)
        if args.trace.endswith(".json"):
            trace = parse_generic_trace(args.trace)
        else:
            trace = parse_nextflow_trace(args.trace)
        policy = AttributionPolicy(
            kind=PolicyKind(args.policy),
            idle_baseline_watts=args.idle_baseline_watts)
    except _USAGE_ERRORS as exc:
        return _fail(str(exc), EXIT_USAGE)
    try:
        report = assemble_report(
            trace, logs, policy,
            method=MeasurementMethod(args.method))
    except WattflowError as exc:
        return _fail(str(exc), EXIT_RUNTIME)
    payload = report_to_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(args.out)
    else:
        sys.stdout.write(payload)
    if logs_flagged or FLAG_UNKNOWN_NODE in report.flags:
        print("wattflow: warning: report computed from partial data",
              file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        reports = [load_report(path) for path in args.reports]
    except _USAGE_ERRORS as exc:
        return _fail(str(exc), EXIT_USAGE)
    reference = reports[0]
    rows = []
    for path, report in zip(args.reports, reports):
        if report.workflow_id != reference.workflow_id:
            return _fail(
                f"workflow mismatch: {path} reports "
                f"{report.workflow_id!r}, reference is "
                f"{reference.workflow_id!r}",
                EXIT_RUNTIME)
        if reference.total_joules <= 0:
            return _fail("reference total is zero", EXIT_RUNTIME)
        rows.append({
            "file": path,
            "method": report.method.value,
            "total_joules": report.total_joules,
            "percent_of_reference":
                100.0 * report.total_joules / reference.total_joules,
        })
    print(f"workflow {reference.workflow_id}: reference "
          f"{args.reports[0]} ({reference.method.value})")
    print(f"{'method':<18}{'joules':>16}{'vs reference':>15}")
    for row in rows:
        print(f"{row['method']:<18}{row['total_joules']:>16.2f}"
              f"{row['percent_of_reference']:>14.2f}%")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workflow_id": reference.workflow_id,
                       "reference": args.reports[0],
                       "rows": rows}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except _USAGE_ERRORS as exc:
        return _fail(str(exc), EXIT_USAGE)
    os.makedirs(args.out, exist_ok=True)
    try:
        logs = synthesize_counters(scenario)
        write_log_files(scenario, logs, args.out)
        write_generic_trace(
            scenario.trace,
            os.path.join(args.out, f"trace_{scenario.scenario_id}.json"))
        result = evaluate_methods(scenario, logs)
    except WattflowError as exc:
        return _fail(str(exc), EXIT_RUNTIME)
    for method, report in result.reports.items():
        name = f"report_{scenario.scenario_id}_{method.value}.json"
        with open(os.path.join(args.out, name), "w",
                  encoding="utf-8") as fh:
            fh.write(report_to_json(report))
    table_text = result.table.format_text()
    with open(os.path.join(args.out,
                           f"coverage_{scenario.scenario_id}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result.table.to_obj(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(args.out,
                           f"coverage_{scenario.scenario_id}.txt"),
              "w", encoding="utf-8") as fh:
        fh.write(table_text)
    sys.stdout.write(table_text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wattflow",
        description="Coordinate, record, and account hardware energy "
                    "counter measurements for workflow runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_agent = sub.add_parser(
        "agent", help="run a per-node sampling agent")
    p_agent.add_argument("--config", required=True,
                         help="agent config JSON")
    p_agent.set_defaults(func=cmd_agent)

    p_run = sub.add_parser(
        "run", help="run a workflow command under measurement")
    p_run.add_argument("--config", required=True, help="run config JSON")
    p_run.add_argument("--cmd", help="workflow command (overrides config)")
    p_run.add_argument("--session", help="session id (overrides config)")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--resume", metavar="SESSION",
                       help="salvage a crashed session instead of running")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser(
        "report", help="compute per-task energy from logs and a trace")
    p_report.add_argument("--logs", required=True,
                          help="directory of session logs")
    p_report.add_argument("--trace", required=True,
                          help="trace file (.json generic, else "
                               "scheduler TSV)")
    p_report.add_argument("--policy", default="cputime",
                          choices=[k.value for k in PolicyKind])
    p_report.add_argument("--idle-baseline-watts", type=float,
                          default=None)
    p_report.add_argument("--session", default=None,
                          help="session id when the directory holds "
                               "several")
    p_report.add_argument("--method",
                          default=MeasurementMethod.SHELL_WRAP.value,
                          choices=[m.value for m in MeasurementMethod],
                          help="measurement method recorded in the report")
    p_report.add_argument("--out", help="write the report here instead "
                                        "of stdout")
    p_report.set_defaults(func=cmd_report)

    p_compare = sub.add_parser(
        "compare", help="tabulate reports against the first one")
    p_compare.add_argument("reports", nargs="+",
                           help="report JSON files; first is reference")
    p_compare.add_argument("--out", help="also write the table as JSON")
    p_compare.set_defaults(func=cmd_compare)

    p_sim = sub.add_parser(
        "simulate", help="evaluate all methods on a synthetic scenario")
    p_sim.add_argument("--scenario", required=True,
                       help="scenario JSON file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # Reading an input or writing an output; the commands map OS
        # errors raised while they run to EXIT_RUNTIME themselves.
        return _fail(str(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
