"""Tests for the simulation harness: exact truth, synthesis, evaluation."""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace

import pytest

from wattflow.accounting import (
    MeasurementMethod,
    NodeEnergyLog,
    log_flags,
    report_to_json,
)
from wattflow.counter import (
    CounterSpec,
    RaplDomain,
    RawSample,
    build_series,
    integrate_window,
    series_total,
)
from wattflow.errors import (
    InvalidArgumentError,
    SchemaViolationError,
)
from wattflow.logfile import LogStatus, parse_log
from wattflow.simulate import (
    GroundTruth,
    MethodTiming,
    PowerProfile,
    Scenario,
    TaskLoad,
    analytic_energy,
    evaluate_methods,
    ground_truth,
    load_scenario,
    scenario_from_obj,
    scrape_points,
    synthesize_counters,
    write_log_files,
)
from wattflow.trace import TaskRecord, TaskStatus, WorkflowTrace

S = 1_000_000_000
ORIGIN = 1_700_000_000_000_000_000


def quadrature_energy(profile: PowerProfile, lo: float, hi: float,
                      dt: float = 0.001) -> float:
    """Independent midpoint-quadrature integrator used as oracle."""
    n = int(round((hi - lo) / dt))
    total = 0.0
    for k in range(n):
        t = lo + (k + 0.5) * dt
        total += profile.power_at(t) * dt
    return total


def make_scenario(loads_watts: float = 150.0, idle: float = 0.0,
                  duration_s: float = 130.0, lead: float = 2.0,
                  plugin_delay: float = 9.8, task_delay: float = 10.8,
                  scrape_interval: float = 30.0,
                  bit_width: int = 32, unit: float = 1e-6,
                  sample_interval_ms: int = 500,
                  scenario_id: str = "sc") -> Scenario:
    """One node, one full-window constant load (uniform power inside)."""
    load = TaskLoad("t1", 0.0, duration_s, loads_watts)
    task = TaskRecord(
        task_id="t1", name="t1", node_id="n1",
        start_wall_ns=ORIGIN, end_wall_ns=ORIGIN + round(duration_s * S),
        cpu_time_s=duration_s, status=TaskStatus.COMPLETED)
    trace = WorkflowTrace(
        workflow_id="wf", submitted_wall_ns=ORIGIN,
        finished_wall_ns=ORIGIN + round(duration_s * S), tasks=(task,))
    return Scenario(
        scenario_id=scenario_id,
        profiles=(PowerProfile("n1", idle, (load,)),),
        trace=trace,
        specs={"n1": CounterSpec(domain=RaplDomain.PACKAGE,
                                 bit_width=bit_width,
                                 energy_unit_joules=unit)},
        timing=MethodTiming(shell_lead_s=lead, plugin_delay_s=plugin_delay,
                            taskmethod_delay_s=task_delay,
                            scrape_interval_s=scrape_interval),
        sample_interval_ms=sample_interval_ms,
        wall_origin_ns=ORIGIN)


def idle_only_scenario(idle_watts: float, duration_s: float,
                       bit_width: int, unit: float,
                       sample_interval_ms: int,
                       scrape_interval: float = 30.0) -> Scenario:
    trace = WorkflowTrace(
        workflow_id="wf", submitted_wall_ns=ORIGIN,
        finished_wall_ns=ORIGIN + round(duration_s * S), tasks=())
    return Scenario(
        scenario_id="idle",
        profiles=(PowerProfile("n1", idle_watts),),
        trace=trace,
        specs={"n1": CounterSpec(domain=RaplDomain.PACKAGE,
                                 bit_width=bit_width,
                                 energy_unit_joules=unit)},
        timing=MethodTiming(scrape_interval_s=scrape_interval),
        sample_interval_ms=sample_interval_ms,
        wall_origin_ns=ORIGIN)


class TestAnalyticEnergy:
    def test_idle_plus_one_load(self):
        profile = PowerProfile("n1", 50.0, (TaskLoad("t", 5.0, 15.0, 100.0),))
        assert analytic_energy(profile, (0.0, 20.0)) == 2000.0

    def test_empty_window_is_zero(self):
        profile = PowerProfile("n1", 50.0)
        assert analytic_energy(profile, (3.0, 3.0)) == 0.0

    def test_partial_overlap(self):
        profile = PowerProfile("n1", 0.0, (TaskLoad("t", 10.0, 20.0, 40.0),))
        assert analytic_energy(profile, (15.0, 25.0)) == 200.0

    def test_inverted_window_rejected(self):
        with pytest.raises(InvalidArgumentError):
            analytic_energy(PowerProfile("n1", 10.0), (5.0, 4.0))

    def test_matches_quadrature_on_random_profiles(self):
        rng = random.Random(42)
        for _ in range(5):
            loads = []
            for i in range(rng.randint(1, 6)):
                start = round(rng.uniform(0, 50), 3)
                dur = round(rng.uniform(0.5, 30), 3)
                loads.append(TaskLoad(f"t{i}", start, start + dur,
                                      rng.uniform(5, 200)))
            profile = PowerProfile("n1", rng.uniform(10, 80), tuple(loads))
            exact = analytic_energy(profile, (0.0, 90.0))
            approx = quadrature_energy(profile, 0.0, 90.0)
            assert approx == pytest.approx(exact, rel=1e-6)

    def test_negative_watts_rejected(self):
        with pytest.raises(InvalidArgumentError):
            TaskLoad("t", 0.0, 1.0, -5.0)
        with pytest.raises(InvalidArgumentError):
            PowerProfile("n1", -1.0)


class TestGroundTruth:
    def test_totals_and_per_task(self):
        scenario = make_scenario(loads_watts=150.0, idle=30.0)
        truth = ground_truth(scenario)
        assert truth.total_joules == pytest.approx(180.0 * 130.0)
        assert truth.per_node_joules["n1"] == pytest.approx(180.0 * 130.0)
        assert truth.per_task_joules["t1"] == pytest.approx(150.0 * 130.0)


class TestScenarioValidation:
    def test_load_without_trace_task_rejected(self):
        scenario = make_scenario()
        bad_profile = PowerProfile(
            "n1", 0.0, (TaskLoad("ghost", 0.0, 10.0, 5.0),))
        with pytest.raises(InvalidArgumentError, match="ghost"):
            Scenario(scenario_id="bad", profiles=(bad_profile,),
                     trace=scenario.trace, specs=dict(scenario.specs),
                     wall_origin_ns=ORIGIN)

    def test_load_window_mismatch_rejected(self):
        scenario = make_scenario()
        skewed = PowerProfile(
            "n1", 0.0, (TaskLoad("t1", 0.0, 129.0, 150.0),))
        with pytest.raises(InvalidArgumentError, match="disagrees"):
            Scenario(scenario_id="bad", profiles=(skewed,),
                     trace=scenario.trace, specs=dict(scenario.specs),
                     wall_origin_ns=ORIGIN)

    def test_missing_spec_rejected(self):
        scenario = make_scenario()
        with pytest.raises(InvalidArgumentError, match="spec"):
            Scenario(scenario_id="bad", profiles=scenario.profiles,
                     trace=scenario.trace, specs={},
                     wall_origin_ns=ORIGIN)


class TestSynthesis:
    def test_zero_power_counter_stays_constant(self):
        scenario = idle_only_scenario(0.0, 10.0, 32, 1e-6, 500)
        logs = synthesize_counters(scenario)
        series = logs["n1"].series[RaplDomain.PACKAGE]
        assert all(s.raw == 0 for s in series.samples)

    def test_first_wrap_time_closed_form(self):
        # 100 W against a 20-bit counter with 1e-6 J units fills the
        # register in 2^20 * 1e-6 / 100 s, i.e. about 10.486 ms.
        unit = 1e-6
        t_star = (2 ** 20) * unit / 100.0
        assert t_star == 0.01048576
        scenario = idle_only_scenario(100.0, 0.05, 20, unit,
                                      sample_interval_ms=1,
                                      scrape_interval=0.01)
        logs = synthesize_counters(scenario)
        series = logs["n1"].series[RaplDomain.PACKAGE]
        decreases = [i for i in range(1, len(series.samples))
                     if series.samples[i].raw < series.samples[i - 1].raw]
        assert decreases, "expected at least one wrap"
        first = decreases[0]
        # The counter accumulates from zero at the first sample, so the
        # wrap instant sits t_star after it on the monotonic axis.
        before = series.samples[first - 1].t_ns / 1e9
        after = series.samples[first].t_ns / 1e9
        assert before < t_star
        assert after >= t_star

    def test_hour_scale_wrap_recovery(self):
        # 32-bit counter with 2^-14 J units holds 262144 J; at
        # 84.02051282051282 W it wraps every 52 minutes, so a two-hour
        # run crosses two wraps.  Unwrapped integration must recover the
        # exact energy while naive last-minus-first is off by two moduli.
        capacity = (2 ** 32) * 2.0 ** -14
        assert capacity == 262144.0
        watts = capacity / 3120.0
        scenario = idle_only_scenario(watts, 7200.0, 32, 2.0 ** -14, 500)
        logs = synthesize_counters(scenario)
        series = logs["n1"].series[RaplDomain.PACKAGE]
        decreases = sum(
            1 for i in range(1, len(series.samples))
            if series.samples[i].raw < series.samples[i - 1].raw)
        assert decreases == 2
        epoch = series.epoch_wall_ns
        start_mono = ORIGIN - epoch
        end_mono = start_mono + 7200 * S
        truth = watts * 7200.0
        assert truth == pytest.approx(604947.6923076923)
        measured = integrate_window(series, start_mono, end_mono).joules
        assert measured == pytest.approx(truth, rel=1e-4)
        by_t = {s.t_ns: s.raw for s in series.samples}
        naive = (by_t[end_mono] - by_t[start_mono]) * 2.0 ** -14
        assert abs(truth - naive) >= 0.99 * capacity

    def test_session_longer_than_a_day_closes_with_exact_total(
            self, tmp_path):
        # Longer than the agent's default 24 h stale timeout: the session
        # must still end closed, not reaped, and hold the whole energy.
        watts = 100.0
        scenario = idle_only_scenario(watts, 25 * 3600.0, 32, 2.0 ** -14,
                                      sample_interval_ms=60_000)
        (path,) = write_log_files(scenario, str(tmp_path))
        parsed = parse_log(path)
        assert parsed.status is LogStatus.CLOSED
        series = parsed.series[RaplDomain.PACKAGE]
        span_s = (series.samples[-1].t_ns - series.samples[0].t_ns) / 1e9
        assert span_s > 25 * 3600.0
        assert series_total(series).joules == pytest.approx(
            watts * span_s, rel=1e-9)

    def test_deterministic_bit_identical_logs(self, tmp_path):
        scenario = make_scenario()
        logs_a = synthesize_counters(scenario)
        logs_b = synthesize_counters(scenario)
        sa = tuple(logs_a["n1"].series[RaplDomain.PACKAGE].samples)
        sb = tuple(logs_b["n1"].series[RaplDomain.PACKAGE].samples)
        assert sa == sb
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        (path_a,) = write_log_files(scenario, str(dir_a))
        (path_b,) = write_log_files(scenario, str(dir_b))
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_written_logs_parse_back_to_same_series(self, tmp_path):
        scenario = make_scenario()
        logs = synthesize_counters(scenario)
        (path,) = write_log_files(scenario, str(tmp_path))
        parsed = parse_log(path)
        assert not log_flags(parsed)
        original = logs["n1"].series[RaplDomain.PACKAGE]
        recovered = parsed.series[RaplDomain.PACKAGE]
        assert tuple(recovered.samples) == tuple(original.samples)
        assert recovered.epoch_wall_ns == original.epoch_wall_ns
        assert recovered.spec == original.spec


class TestScrapePoints:
    def test_grid_aligned_to_workflow_end(self):
        scenario = make_scenario(loads_watts=100.0, idle=0.0)
        (profile,) = scenario.profiles
        points = scrape_points(profile, scenario)
        times_s = [(t - ORIGIN) / S for t, _ in points]
        assert times_s == [10.0, 40.0, 70.0, 100.0, 130.0]

    def test_trailing_means_reach_before_window(self):
        # Uniform 100 W inside the window over 80 W surroundings: the
        # earliest point's averaging span reaches 20 s before the
        # workflow started.
        scenario = make_scenario(loads_watts=20.0, idle=80.0)
        (profile,) = scenario.profiles
        points = dict(scrape_points(profile, scenario))
        assert points[ORIGIN + 130 * S] == pytest.approx(100.0)
        expected_first = (20.0 * 80.0 + 10.0 * 100.0) / 30.0
        assert points[ORIGIN + 10 * S] == pytest.approx(expected_first)


class TestEvaluateMethods:
    def test_coverage_matches_one_minus_delay_over_runtime(self):
        scenario = make_scenario()
        result = evaluate_methods(scenario)
        table = result.table
        assert table.ground_truth_joules == pytest.approx(150.0 * 130.0)
        plugin = table.row(MeasurementMethod.SIGNAL_PLUGIN)
        task = table.row(MeasurementMethod.SIGNAL_WORKFLOW)
        assert plugin.vs_truth == pytest.approx(1 - 9.8 / 130.0, abs=0.005)
        assert task.vs_truth == pytest.approx(1 - 10.8 / 130.0, abs=0.005)

    def test_method_ordering_and_report_fields(self):
        scenario = make_scenario()
        result = evaluate_methods(scenario)
        shell = result.reports[MeasurementMethod.SHELL_WRAP]
        plugin = result.reports[MeasurementMethod.SIGNAL_PLUGIN]
        task = result.reports[MeasurementMethod.SIGNAL_WORKFLOW]
        scrape = result.reports[MeasurementMethod.INTERVAL_SCRAPE]
        assert shell.total_joules >= plugin.total_joules
        assert plugin.total_joules >= task.total_joules
        assert shell.coverage_fraction == 1.0
        assert plugin.coverage_fraction == pytest.approx(
            plugin.total_joules / shell.total_joules)
        assert plugin.coverage_fraction <= 1.0
        assert scrape.coverage_fraction is None
        for report in result.reports.values():
            assert report.workflow_id == "wf"
            assert report.per_task == ()

    def test_zero_delays_give_full_coverage(self):
        scenario = make_scenario(lead=0.0, plugin_delay=0.0, task_delay=0.0)
        result = evaluate_methods(scenario)
        plugin = result.reports[MeasurementMethod.SIGNAL_PLUGIN]
        assert plugin.coverage_fraction == pytest.approx(1.0, abs=1e-6)
        shell = result.table.row(MeasurementMethod.SHELL_WRAP)
        assert shell.vs_truth == pytest.approx(1.0, abs=1e-6)

    def test_scrape_overestimates_over_active_surroundings(self):
        # 100 W inside a 130 s window over 80 W surroundings: the five
        # end-aligned trailing means cover (-20 s, 130 s], absorbing
        # 20 s of 80 W that was never inside the window.
        scenario = make_scenario(loads_watts=20.0, idle=80.0)
        result = evaluate_methods(scenario)
        scrape = result.table.row(MeasurementMethod.INTERVAL_SCRAPE)
        truth = 100.0 * 130.0
        assert result.table.ground_truth_joules == pytest.approx(truth)
        assert scrape.measured_joules == pytest.approx(
            truth + 20.0 * 80.0)
        assert scrape.vs_truth > 1.10
        shell = result.table.row(MeasurementMethod.SHELL_WRAP)
        assert shell.vs_truth > 1.0

    def test_delay_past_end_measures_nothing(self):
        scenario = make_scenario(duration_s=10.0, plugin_delay=50.0,
                                 task_delay=50.0)
        result = evaluate_methods(scenario)
        plugin = result.reports[MeasurementMethod.SIGNAL_PLUGIN]
        assert plugin.total_joules == pytest.approx(0.0, abs=1e-9)
        assert plugin.coverage_fraction == pytest.approx(0.0, abs=1e-9)
        # The zero-length window still measures every node, unflagged.
        assert plugin.per_node == {"n1": {RaplDomain.PACKAGE: 0.0}}
        assert plugin.flags == frozenset()

    def test_deterministic_reports_bit_identical(self):
        scenario = make_scenario()
        first = evaluate_methods(scenario)
        second = evaluate_methods(scenario)
        for method in first.reports:
            assert report_to_json(first.reports[method]) == \
                report_to_json(second.reports[method])
        assert json.dumps(first.table.to_obj(), sort_keys=True) == \
            json.dumps(second.table.to_obj(), sort_keys=True)

    def test_psys_beside_package_is_not_added(self):
        # psys contains package, so a node logging both counts package
        # alone; adding psys would double count the node.
        scenario = make_scenario(idle=20.0)
        pkg = synthesize_counters(scenario)["n1"].series[
            RaplDomain.PACKAGE]
        psys_spec = replace(pkg.spec, domain=RaplDomain.PSYS)
        psys = build_series(
            "n1", psys_spec,
            [RawSample(s.t_ns, 2 * s.raw % psys_spec.modulus)
             for s in pkg.samples],
            epoch_wall_ns=pkg.epoch_wall_ns)
        logs = {"n1": NodeEnergyLog("n1", {RaplDomain.PACKAGE: pkg,
                                           RaplDomain.PSYS: psys})}
        result = evaluate_methods(scenario, logs=logs)
        for method in (MeasurementMethod.SHELL_WRAP,
                       MeasurementMethod.SIGNAL_PLUGIN,
                       MeasurementMethod.SIGNAL_WORKFLOW):
            report = result.reports[method]
            node = report.per_node["n1"]
            assert node[RaplDomain.PSYS] > node[RaplDomain.PACKAGE] > 0
            assert report.total_joules == node[RaplDomain.PACKAGE]

    def test_table_text_lists_all_methods(self):
        scenario = make_scenario()
        text = evaluate_methods(scenario).table.format_text()
        for method in MeasurementMethod:
            assert method.value in text


def scenario_doc() -> dict:
    return {
        "scenario_id": "two-node",
        "wall_origin_ns": ORIGIN,
        "sample_interval_ms": 500,
        "workflow": {"workflow_id": "wf-two", "start_s": 0.0,
                     "end_s": 60.0},
        "method_timing": {"shell_lead_s": 1.0, "plugin_delay_s": 3.0,
                          "taskmethod_delay_s": 4.0,
                          "scrape_interval_s": 15.0},
        "nodes": [
            {"node_id": "alpha", "idle_watts": 40.0,
             "spec": {"domain": "package", "bit_width": 32,
                      "unit_j": 6.103515625e-05},
             "tasks": [{"task_id": "a1", "start_s": 0.0, "end_s": 60.0,
                        "watts": 110.0, "cpu_time_s": 220.0}]},
            {"node_id": "beta", "idle_watts": 35.0,
             "spec": {"domain": "package", "bit_width": 32,
                      "unit_j": 6.103515625e-05},
             "tasks": [{"task_id": "b1", "start_s": 10.0, "end_s": 50.0,
                        "watts": 90.0}]},
        ],
    }


class TestScenarioDocument:
    def test_round_trip_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_doc()), encoding="utf-8")
        scenario = load_scenario(str(path))
        assert scenario.scenario_id == "two-node"
        assert scenario.trace.workflow_id == "wf-two"
        assert {p.node_id for p in scenario.profiles} == {"alpha", "beta"}
        truth = ground_truth(scenario)
        expected = (40.0 * 60 + 110.0 * 60) + (35.0 * 60 + 90.0 * 40)
        assert truth.total_joules == pytest.approx(expected)
        by_id = {t.task_id: t for t in scenario.trace.tasks}
        assert by_id["a1"].cpu_time_s == 220.0
        assert by_id["b1"].cpu_time_s == 40.0

    def test_missing_fields_rejected(self):
        doc = scenario_doc()
        del doc["workflow"]
        with pytest.raises(SchemaViolationError):
            scenario_from_obj(doc)
        with pytest.raises(SchemaViolationError):
            scenario_from_obj("not an object")

    def test_absent_keys_take_the_dataclass_defaults(self):
        doc = scenario_doc()
        doc["method_timing"] = {"plugin_delay_s": 3.0, "unknown_s": 1.0}
        del doc["nodes"][1]["spec"]
        scenario = scenario_from_obj(doc)
        assert scenario.timing == MethodTiming(plugin_delay_s=3.0)
        assert scenario.specs["beta"] == CounterSpec.from_obj({})

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(SchemaViolationError):
            load_scenario(str(path))

    def test_two_node_evaluation_is_consistent(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_doc()), encoding="utf-8")
        scenario = load_scenario(str(path))
        result = evaluate_methods(scenario)
        shell = result.table.row(MeasurementMethod.SHELL_WRAP)
        # Shell lead adds idle-level energy on both sides, never less.
        assert shell.vs_truth >= 1.0
        plugin = result.table.row(MeasurementMethod.SIGNAL_PLUGIN)
        assert 0.9 < plugin.vs_shell < 1.0
        assert isinstance(result.truth, GroundTruth)
        assert result.truth.per_task_joules["b1"] == pytest.approx(3600.0)
