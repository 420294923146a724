"""Command-line interface.

Subcommands:
  agent     run a per-node sampling agent from a JSON config
  run       execute a workflow command bracketed by measurement
  report    compute per-task energy from collected logs and a trace
  compare   tabulate reports against a reference report
  simulate  synthesize a scenario, evaluate all methods, emit artifacts

Exit codes: 0 success; 2 usage, malformed input documents, or an input
or output path that cannot be read or written; 3 runtime failure (agent
start, tasks on a node with no usable log, workflow mismatch, nonzero
workflow exit, an OS error while an agent, a run, or a resume is under
way); 4 report written with flags, among them ``missing_log:<node>`` for
a node without a usable log (``run --resume``: only for that flag), or
``compare`` given a report that carries flags.

By class: while a command reads its inputs, ``InvalidArgumentError`` and
``ParseError`` (``SchemaViolationError`` included) give exit 2 and any
other ``WattflowError`` gives exit 3; once the work is under way, every
``WattflowError`` gives exit 3.  An ``OSError`` gives exit 3 while an
agent, a run or a resume is under way, and exit 2 anywhere else.
"""

from __future__ import annotations

import argparse
import importlib
import logging
import os
import sys
import time
from typing import Any, Sequence

from .agent import SamplerAgent, config_from_obj
from .errors import (
    DegenerateSeriesError,
    InvalidArgumentError,
    ParseError,
    SchemaViolationError,
    WattflowError,
    json_text,
    load_json,
)
from .kinds import MeasurementMethod, PolicyKind
from .logfile import EdgePlan, NodeEnergyLog, parse_log, read_counts

logger = logging.getLogger(__name__)

# Modules that only some commands use, so that ``wattflow agent`` starts
# without them, and the names the commands take from each.  No command
# calls ``report_to_json``: it stays reachable here because the benchmark's
# trace hooks wrap it by this module's name.
_LAZY = {
    "accounting": ("FLAG_MISSING_LOG", "AttributionPolicy", "ReportPlan",
                   "assemble_report", "load_report", "report_to_json",
                   "write_report"),
    "orchestrate": ("load_run_config", "resume", "run_wrapped"),
    "simulate": ("evaluate_methods", "load_scenario", "write_log_files"),
    "trace": ("parse_generic_trace", "parse_nextflow_trace",
              "write_generic_trace"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items()
                for name in names}


def __getattr__(name: str) -> Any:
    """Import one of the commands' names from its module on first lookup
    and keep it as this module's attribute."""
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


# This module.  The commands look each name above up on it when they run,
# so a caller that replaced one (a test, a trace hook) sees its calls.
_cli = sys.modules[__name__]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_PARTIAL = 4

_USAGE_ERRORS = (InvalidArgumentError, ParseError)


def _fail(message: str, code: int) -> int:
    print(f"wattflow: error: {message}", file=sys.stderr)
    return code


def _flags_exit(flags: frozenset[str]) -> int:
    """Exit 4, with one warning naming them, when a report has flags."""
    if not flags:
        return EXIT_OK
    print(f"wattflow: warning: report computed from partial data, flags: "
          f"{', '.join(sorted(flags))}", file=sys.stderr)
    return EXIT_PARTIAL


def cmd_agent(args: argparse.Namespace) -> int:
    # An unreadable config file is an input path error, which main reports.
    try:
        doc = load_json(args.config)
    except SchemaViolationError as exc:
        return _fail(str(exc), EXIT_USAGE)
    try:
        config, backends = config_from_obj(doc, start_ns=time.monotonic_ns())
    except _USAGE_ERRORS as exc:
        return _fail(str(exc), EXIT_USAGE)
    except (WattflowError, OSError) as exc:
        # A backend that cannot be built: the agent cannot start.
        return _fail(str(exc), EXIT_RUNTIME)
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
        config = _cli.load_run_config(args.config, workflow_cmd=args.cmd,
                                      session_id=args.resume or args.session,
                                      output_dir=args.out)
    except _USAGE_ERRORS as exc:
        return _fail(str(exc), EXIT_USAGE)
    os.makedirs(config.output_dir, exist_ok=True)
    try:
        result = _cli.resume(config) if args.resume \
            else _cli.run_wrapped(config)
    except (WattflowError, OSError) as exc:
        return _fail(str(exc), EXIT_RUNTIME)
    print(result.report_path)
    if args.resume:
        # Salvaging is what resume is for: only a lost node makes it partial.
        if not any(flag.startswith(_cli.FLAG_MISSING_LOG)
                   for flag in result.report.flags):
            return EXIT_OK
    elif result.workflow_exit_code != 0:
        return _fail(
            f"workflow exited {result.workflow_exit_code}; "
            f"report written to {result.report_path}", EXIT_RUNTIME)
    return _flags_exit(result.report.flags)


def _load_logs(logs_dir: str, session: str | None, edges: EdgePlan
               ) -> dict[str, NodeEnergyLog]:
    """Read every session log in a directory into per-node logs, each at
    the edges ``edges`` plans (see ``logfile.read_counts``).

    Multiple sessions in one directory need ``--session``; with it, only
    the logs whose names end in ``_<session>.csv`` are read.  A log that
    does not parse counts as another session when the parsed logs name
    one session and its file name does not end in ``_<that session>.csv``;
    otherwise its parse error is raised.
    """
    suffix = ".csv" if session is None else f"_{session}.csv"
    parsed_logs = []
    unparsed: list[tuple[str, ParseError]] = []
    for name in sorted(os.listdir(logs_dir)):
        if name.startswith("rapl_") and name.endswith(suffix):
            try:
                parsed_logs.append(read_counts(os.path.join(logs_dir, name),
                                               edges))
            except ParseError as exc:
                unparsed.append((name, exc))
    if session is not None:
        parsed_logs = [p for p in parsed_logs if p.session_id == session]
    sessions = sorted({p.session_id for p in parsed_logs})
    others = [f"{name} (does not parse)" for name, _ in unparsed
              if len(sessions) == 1
              and not name.endswith(f"_{sessions[0]}.csv")]
    if len(sessions) > 1 or others:
        raise InvalidArgumentError(
            f"multiple sessions in {logs_dir}: "
            f"{', '.join(sessions + others)}; pick one with --session")
    if unparsed:
        raise unparsed[0][1]
    if not parsed_logs:
        raise InvalidArgumentError(
            f"no session logs found in {logs_dir}"
            + (f" for session {session}" if session else ""))
    logs: dict[str, NodeEnergyLog] = {}
    for p in parsed_logs:
        if p.node_id in logs:
            raise InvalidArgumentError(
                f"two logs for node {p.node_id} in session "
                f"{p.session_id}")
        logs[p.node_id] = p
    return logs


def _note_offsets(window: tuple[int, int], logs: dict[str, NodeEnergyLog],
                  tsv: bool) -> None:
    """One note per node whose log's span does not hold the trace window,
    naming how far the window's middle lies from the span's: a clock or
    time-zone offset between trace and logs shows as that many seconds."""
    for node, log in sorted(logs.items()):
        try:
            lo, hi = log.wall_span()
        except (DegenerateSeriesError, InvalidArgumentError):
            continue
        if lo <= window[0] and window[1] <= hi:
            continue
        offset_s = (window[0] + window[1] - lo - hi) / 2e9
        print(f"wattflow: note: the trace window is not inside node {node}'s "
              f"log span; its middle lies {abs(offset_s):.1f} s "
              f"{'before' if offset_s < 0 else 'after'} the span's"
              + ("; TSV timestamps are read as UTC, and Nextflow's "
                 "trace.raw = true writes epoch ms" if tsv else ""),
              file=sys.stderr)


def cmd_report(args: argparse.Namespace) -> int:
    try:
        # The trace plans the edges each log is read at, but a bad log is
        # still the error reported when the trace is bad too.
        try:
            trace = (_cli.parse_generic_trace if args.trace.endswith(".json")
                     else _cli.parse_nextflow_trace)(args.trace)
            plan, trace_error = _cli.ReportPlan(trace), None
        except (WattflowError, OSError) as exc:
            plan, trace_error = None, exc
        logs = _load_logs(args.logs, args.session,
                          plan.edges if plan is not None
                          else lambda _node, _span: ())
        if trace_error is not None:
            raise trace_error
        policy = _cli.AttributionPolicy(
            kind=PolicyKind(args.policy),
            idle_baseline_watts=args.idle_baseline_watts)
    except _USAGE_ERRORS as exc:
        return _fail(str(exc), EXIT_USAGE)
    _note_offsets(plan.window, logs, tsv=not args.trace.endswith(".json"))
    try:
        report = _cli.assemble_report(
            trace, logs, policy, method=MeasurementMethod(args.method),
            plan=plan)
    except WattflowError as exc:
        return _fail(str(exc), EXIT_RUNTIME)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _cli.write_report(report, fh)
        print(args.out)
    else:
        _cli.write_report(report, sys.stdout)
    return _flags_exit(report.flags)


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        reports = [_cli.load_report(path) for path in args.reports]
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
            fh.write(json_text({"workflow_id": reference.workflow_id,
                                "reference": args.reports[0],
                                "rows": rows}))
    flagged = [(path, report.flags)
               for path, report in zip(args.reports, reports) if report.flags]
    for path, flags in flagged:
        print(f"wattflow: warning: {path} carries flags: "
              f"{', '.join(sorted(flags))}", file=sys.stderr)
    return EXIT_PARTIAL if flagged else EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        scenario = _cli.load_scenario(args.scenario)
    except _USAGE_ERRORS as exc:
        return _fail(str(exc), EXIT_USAGE)
    os.makedirs(args.out, exist_ok=True)
    try:
        logs = {log.node_id: log for log in map(
            parse_log, _cli.write_log_files(scenario, args.out))}
        _cli.write_generic_trace(
            scenario.trace,
            os.path.join(args.out, f"trace_{scenario.scenario_id}.json"))
        result = _cli.evaluate_methods(scenario, logs)
    except WattflowError as exc:
        return _fail(str(exc), EXIT_RUNTIME)
    sid = scenario.scenario_id
    table_text = result.table.format_text()
    for method, report in result.reports.items():
        with open(os.path.join(args.out, f"report_{sid}_{method.value}.json"),
                  "w", encoding="utf-8") as fh:
            _cli.write_report(report, fh)
    outputs = {f"coverage_{sid}.json": json_text(result.table.to_obj()),
               f"coverage_{sid}.txt": table_text}
    for name, text in outputs.items():
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
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
    p_report.add_argument("--method", default="shell-wrap",
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
