"""Tests for marker-file session coordination and the directory watcher."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from wattflow.errors import AlreadyActiveError, InvalidArgumentError, ParseError
from wattflow.signals import (
    SessionMarker,
    SessionReaped,
    SessionScope,
    SessionStarted,
    SessionStopped,
    SignalWatcher,
    WatcherFailed,
    marker_filename,
    parse_marker,
    signal_start,
    signal_stop,
)


def wf_marker(session_id="wf42", created=1_000):
    return SessionMarker(session_id=session_id, created_wall_ns=created)


class TestMarker:
    def test_workflow_marker_round_trips(self, tmp_path):
        path = signal_start(str(tmp_path), wf_marker())
        assert os.path.basename(path) == "start_wf42.txt"
        assert parse_marker(path) == wf_marker()

    def test_task_marker_round_trips(self, tmp_path):
        marker = SessionMarker(session_id="t7", created_wall_ns=5,
                               scope=SessionScope.TASK, task_id="fastp")
        path = signal_start(str(tmp_path), marker)
        parsed = parse_marker(path)
        assert parsed.task_id == "fastp"
        assert parsed.scope is SessionScope.TASK
        assert parsed.session_id == "t7"

    def test_task_scope_requires_task_id(self):
        with pytest.raises(InvalidArgumentError):
            SessionMarker(session_id="x", created_wall_ns=0,
                          scope=SessionScope.TASK)

    def test_workflow_scope_forbids_task_id(self):
        with pytest.raises(InvalidArgumentError):
            SessionMarker(session_id="x", created_wall_ns=0, task_id="t")

    def test_rejects_unsafe_session_ids(self):
        for bad in ("", "../etc", "a/b", ".hidden", "-flag", "a b", "s1\n"):
            with pytest.raises(InvalidArgumentError):
                SessionMarker(session_id=bad, created_wall_ns=0)

    def test_parse_rejects_malformed_body(self, tmp_path):
        p = tmp_path / "start_x.txt"
        p.write_text("no equals sign here\n")
        with pytest.raises(ParseError):
            parse_marker(str(p))
        p.write_text("session=x\n")
        with pytest.raises(ParseError):
            parse_marker(str(p))


class TestStartStop:
    def test_start_twice_is_already_active(self, tmp_path):
        signal_start(str(tmp_path), wf_marker())
        with pytest.raises(AlreadyActiveError):
            signal_start(str(tmp_path), wf_marker(created=2_000))

    def test_no_temp_residue(self, tmp_path):
        signal_start(str(tmp_path), wf_marker())
        assert os.listdir(tmp_path) == ["start_wf42.txt"]

    def test_stop_removes_marker(self, tmp_path):
        signal_start(str(tmp_path), wf_marker())
        was_absent = signal_stop(str(tmp_path), "wf42")
        assert was_absent is False
        assert os.listdir(tmp_path) == []

    def test_stop_is_idempotent(self, tmp_path):
        signal_start(str(tmp_path), wf_marker())
        assert signal_stop(str(tmp_path), "wf42") is False
        assert signal_stop(str(tmp_path), "wf42") is True

    def test_restart_after_stop_allowed(self, tmp_path):
        signal_start(str(tmp_path), wf_marker())
        signal_stop(str(tmp_path), "wf42")
        signal_start(str(tmp_path), wf_marker(created=9))
        assert parse_marker(str(tmp_path / "start_wf42.txt")).created_wall_ns == 9


class TestWatcherPolling:
    def test_started_on_first_poll_after_create(self, tmp_path):
        w = SignalWatcher(str(tmp_path), wall_ns=lambda: 1_000)
        assert w.poll_once() == []
        signal_start(str(tmp_path), wf_marker())
        events = w.poll_once()
        assert events == [SessionStarted(wf_marker())]
        assert w.poll_once() == []

    def test_stopped_on_poll_after_delete(self, tmp_path):
        w = SignalWatcher(str(tmp_path), wall_ns=lambda: 1_000)
        signal_start(str(tmp_path), wf_marker())
        w.poll_once()
        signal_stop(str(tmp_path), "wf42")
        assert w.poll_once() == [SessionStopped("wf42")]

    def test_two_concurrent_sessions_ordered_per_session(self, tmp_path):
        w = SignalWatcher(str(tmp_path), wall_ns=lambda: 1_000)
        signal_start(str(tmp_path), wf_marker("a"))
        signal_start(str(tmp_path), wf_marker("b"))
        first = w.poll_once()
        signal_stop(str(tmp_path), "b")
        signal_stop(str(tmp_path), "a")
        second = w.poll_once()
        all_events = first + second
        assert len(all_events) == 4
        for sid in ("a", "b"):
            kinds = [type(e) for e in all_events
                     if getattr(e, "session_id", None) == sid
                     or (isinstance(e, SessionStarted)
                         and e.marker.session_id == sid)]
            assert kinds == [SessionStarted, SessionStopped]

    def test_reap_after_stale_timeout(self, tmp_path):
        clock = {"now": 1_000}
        w = SignalWatcher(str(tmp_path), stale_timeout_s=10.0,
                          wall_ns=lambda: clock["now"])
        signal_start(str(tmp_path), wf_marker(created=1_000))
        assert w.poll_once() == [SessionStarted(wf_marker(created=1_000))]
        clock["now"] = 1_000 + 9 * 10**9
        assert w.poll_once() == []
        clock["now"] = 1_000 + 11 * 10**9
        assert w.poll_once() == [SessionReaped("wf42")]
        # marker is still on disk (watcher is read-only) but stays reaped
        assert os.path.exists(tmp_path / "start_wf42.txt")
        assert w.poll_once() == []
        # removal of a reaped marker emits nothing further
        signal_stop(str(tmp_path), "wf42")
        assert w.poll_once() == []

    def test_stale_at_startup_emits_started_then_reaped(self, tmp_path):
        signal_start(str(tmp_path), wf_marker(created=0))
        w = SignalWatcher(str(tmp_path), stale_timeout_s=1.0,
                          wall_ns=lambda: 10**12)
        events = w.poll_once()
        assert events == [SessionStarted(wf_marker(created=0)),
                          SessionReaped("wf42")]

    def test_directory_vanished_is_fatal(self, tmp_path):
        sub = tmp_path / "signals"
        sub.mkdir()
        w = SignalWatcher(str(sub), wall_ns=lambda: 0)
        assert w.poll_once() == []
        sub.rmdir()
        events = w.poll_once()
        assert len(events) == 1
        assert isinstance(events[0], WatcherFailed)
        assert w.failed
        assert w.poll_once() == []

    def test_ignores_foreign_and_malformed_files(self, tmp_path):
        (tmp_path / "README").write_text("not a marker")
        (tmp_path / ".tmp_x.123").write_text("half written")
        (tmp_path / "start_bad.txt").write_text("garbage\n")
        w = SignalWatcher(str(tmp_path), wall_ns=lambda: 0)
        assert w.poll_once() == []
        assert w.poll_once() == []


class TestWatcherTiming:
    def test_detection_on_first_poll(self, tmp_path):
        w = SignalWatcher(str(tmp_path), wall_ns=lambda: 1_000)
        assert w.poll_once() == []
        signal_start(str(tmp_path), wf_marker())
        started = w.poll_once()
        assert [type(e) for e in started] == [SessionStarted]
        assert started[0].marker.session_id == "wf42"
        assert w.poll_once() == []
        signal_stop(str(tmp_path), "wf42")
        assert w.poll_once() == [SessionStopped("wf42")]
        assert w.poll_once() == []


class TestLifecycleProperty:
    def test_every_start_gets_exactly_one_terminal_event(self, tmp_path):
        # Fault injection: sessions either stop cleanly or crash (marker
        # left behind) and must then be reaped; each session sees exactly
        # one Started and one terminal event.
        rng = random.Random(1234)
        clock = {"now": 0}
        w = SignalWatcher(str(tmp_path), stale_timeout_s=100.0,
                          wall_ns=lambda: clock["now"])
        history: dict[str, list[type]] = {}
        crashed: list[str] = []
        for i in range(60):
            sid = f"s{i}"
            marker = SessionMarker(session_id=sid,
                                   created_wall_ns=clock["now"])
            signal_start(str(tmp_path), marker)
            for event in w.poll_once():
                history.setdefault(_sid_of(event), []).append(type(event))
            clock["now"] += rng.randrange(1, 20) * 10**9
            if rng.random() < 0.4:
                crashed.append(sid)
            else:
                signal_stop(str(tmp_path), sid)
            for event in w.poll_once():
                history.setdefault(_sid_of(event), []).append(type(event))
        clock["now"] += 200 * 10**9
        for event in w.poll_once():
            history.setdefault(_sid_of(event), []).append(type(event))
        assert len(history) == 60
        for i in range(60):
            sid = f"s{i}"
            kinds = history[sid]
            assert kinds[0] is SessionStarted
            terminal = kinds[1:]
            assert len(terminal) == 1
            expected = SessionReaped if sid in crashed else SessionStopped
            assert terminal[0] is expected


def _sid_of(event) -> str:
    if isinstance(event, SessionStarted):
        return event.marker.session_id
    return event.session_id


class TestCrossProcess:
    def test_marker_written_by_separate_process_is_seen(self, tmp_path):
        # Controller and watcher share only the directory.
        w = SignalWatcher(str(tmp_path), wall_ns=lambda: 0)
        code = ("from wattflow.signals import SessionMarker, signal_start; "
                f"signal_start({str(tmp_path)!r}, "
                "SessionMarker(session_id='xp1', created_wall_ns=7))")
        subprocess.run([sys.executable, "-c", code], check=True)
        events = w.poll_once()
        assert events == [SessionStarted(
            SessionMarker(session_id="xp1", created_wall_ns=7))]
        code = ("from wattflow.signals import signal_stop; "
                f"print(signal_stop({str(tmp_path)!r}, 'xp1'))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"
        assert w.poll_once() == [SessionStopped("xp1")]

    def test_marker_filename_shape(self):
        assert marker_filename("wf42") == "start_wf42.txt"
