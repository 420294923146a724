"""File-based start/stop coordination over a shared directory.

A controller (workflow task, scheduler plugin, or orchestrator) starts a
measurement session by atomically dropping `start_<session_id>.txt` into the
signal directory and stops it by removing the file.  Agents watch the
directory and open or close log sessions in response.  The directory is the
only coordination channel: writers and watchers may live on different
machines as long as they share the filesystem.

Sessions that are never stopped (crashed workflows) are reaped after a stale
timeout so agents do not sample forever; reaped logs are kept and marked,
never discarded.
"""

from __future__ import annotations

import logging
import os
import re
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

from .errors import (
    AlreadyActiveError,
    InvalidArgumentError,
    ParseError,
)

log = logging.getLogger(__name__)

MARKER_PREFIX = "start_"
MARKER_SUFFIX = ".txt"
DEFAULT_STALE_TIMEOUT_S = 24 * 3600.0

_SAFE_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def check_safe_id(kind: str, value: str) -> None:
    """Refuse an id that cannot appear in a file name or a log header.

    Session and node ids are embedded in marker and log file names and in
    the ``key=value`` log header, so they are limited to ASCII letters,
    digits, ``.``, ``_`` and ``-``, and start with a letter or digit.
    """
    if not _SAFE_ID_RE.fullmatch(value):
        raise InvalidArgumentError(
            f"{kind} {value!r} is not filesystem-safe "
            f"(want [A-Za-z0-9][A-Za-z0-9._-]*)")


class SessionScope(Enum):
    WORKFLOW = "workflow"
    TASK = "task"


@dataclass(frozen=True)
class SessionMarker:
    """Identity of one measurement session.

    Task-scoped markers carry the task they bracket; workflow-scoped markers
    must not.
    """

    session_id: str
    created_wall_ns: int
    scope: SessionScope = SessionScope.WORKFLOW
    task_id: str | None = None

    def __post_init__(self) -> None:
        check_safe_id("session_id", self.session_id)
        if self.scope is SessionScope.TASK and not self.task_id:
            raise InvalidArgumentError("task scope requires task_id")
        if self.scope is SessionScope.WORKFLOW and self.task_id is not None:
            raise InvalidArgumentError("workflow scope forbids task_id")

    def body(self) -> str:
        lines = [f"session={self.session_id}",
                 f"scope={self.scope.value}"]
        if self.task_id is not None:
            lines.append(f"task={self.task_id}")
        lines.append(f"created_wall_ns={self.created_wall_ns}")
        return "\n".join(lines) + "\n"


def marker_filename(session_id: str) -> str:
    return f"{MARKER_PREFIX}{session_id}{MARKER_SUFFIX}"


def session_id_from_marker_name(name: str) -> str | None:
    if name.startswith(MARKER_PREFIX) and name.endswith(MARKER_SUFFIX):
        sid = name[len(MARKER_PREFIX):-len(MARKER_SUFFIX)]
        if _SAFE_ID_RE.fullmatch(sid):
            return sid
    return None


def parse_marker(path: str) -> SessionMarker:
    """Read a marker file back into a SessionMarker.

    Raises:
        ParseError: Missing or malformed fields.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    fields: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"expected key=value, got {line!r}",
                             path=path, line=lineno)
        fields[key.strip()] = value.strip()
    try:
        scope = SessionScope(fields.get("scope", "workflow"))
        marker = SessionMarker(
            session_id=fields["session"],
            created_wall_ns=int(fields["created_wall_ns"]),
            scope=scope,
            task_id=fields.get("task"))
    except (KeyError, ValueError, InvalidArgumentError) as exc:
        raise ParseError(f"bad marker: {exc}", path=path) from None
    return marker


def signal_start(signal_dir: str, marker: SessionMarker) -> str:
    """Atomically create the marker file for a session.

    The body is written to a temp file first and linked into place, so
    watchers can never observe a half-written marker and a second start of
    the same session fails cleanly.

    Returns:
        Path of the created marker file.

    Raises:
        AlreadyActiveError: A marker for this session already exists.
    """
    final = os.path.join(signal_dir, marker_filename(marker.session_id))
    tmp = os.path.join(signal_dir,
                       f".tmp_{marker.session_id}.{os.getpid()}")
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(marker.body())
        fh.flush()
        os.fsync(fh.fileno())
    try:
        os.link(tmp, final)
    except FileExistsError:
        raise AlreadyActiveError(
            f"session {marker.session_id!r} already active in "
            f"{signal_dir}") from None
    finally:
        os.unlink(tmp)
    return final


def signal_stop(signal_dir: str, session_id: str) -> bool:
    """Remove a session's marker file.

    Idempotent: stopping a session that is not active succeeds.

    Returns:
        was_absent: True when no marker existed (already stopped).
    """
    path = os.path.join(signal_dir, marker_filename(session_id))
    try:
        os.unlink(path)
    except FileNotFoundError:
        return True
    return False


@dataclass(frozen=True)
class SessionStarted:
    marker: SessionMarker


@dataclass(frozen=True)
class SessionStopped:
    session_id: str


@dataclass(frozen=True)
class SessionReaped:
    session_id: str


@dataclass(frozen=True)
class WatcherFailed:
    reason: str


SessionEvent = Union[SessionStarted, SessionStopped, SessionReaped,
                     WatcherFailed]


class SignalWatcher:
    """Polls a signal directory and turns marker changes into events.

    The watcher is read-only: it never deletes markers.  Each poll produces,
    per session and in order, at most one Started and later exactly one
    Stopped (marker removed) or Reaped (marker outlived the stale timeout).
    A marker already stale at the first poll still yields Started before
    Reaped so consumers see a complete session lifecycle.

    ``poll_once`` does one scan and returns the new events; the caller
    decides how often to poll.  The file name of each active or reaped
    session is remembered, so a scan costs a set lookup per known marker;
    only new names are parsed, and an unreadable marker is retried on
    every scan.
    """

    def __init__(self, signal_dir: str,
                 stale_timeout_s: float = DEFAULT_STALE_TIMEOUT_S,
                 wall_ns: Callable[[], int] = time.time_ns) -> None:
        if stale_timeout_s <= 0:
            raise InvalidArgumentError(
                f"stale_timeout_s must be > 0, got {stale_timeout_s}")
        self.signal_dir = signal_dir
        self.stale_timeout_s = stale_timeout_s
        self._wall_ns = wall_ns
        self._active: dict[str, SessionMarker] = {}
        self._reaped: set[str] = set()
        # File name -> session id, for every session active or reaped.
        self._known: dict[str, str] = {}
        self._bad_markers: set[str] = set()
        self.failed = False

    def poll_once(self) -> list[SessionEvent]:
        if self.failed:
            return []
        try:
            names = os.listdir(self.signal_dir)
        except (FileNotFoundError, NotADirectoryError):
            self.failed = True
            return [WatcherFailed(
                f"signal directory vanished: {self.signal_dir}")]
        events: list[SessionEvent] = []
        present: set[str] = set()
        known = self._known
        for name in names:
            sid = known.get(name)
            if sid is not None:
                present.add(sid)
                continue
            sid = session_id_from_marker_name(name)
            if sid is None:
                continue
            present.add(sid)
            path = os.path.join(self.signal_dir, name)
            try:
                marker = parse_marker(path)
            except (ParseError, OSError) as exc:
                if name not in self._bad_markers:
                    log.warning("ignoring unreadable marker %s: %s", path, exc)
                    self._bad_markers.add(name)
                continue
            if marker.session_id != sid:
                if name not in self._bad_markers:
                    log.warning("marker %s names session %r; ignoring",
                                path, marker.session_id)
                    self._bad_markers.add(name)
                continue
            self._active[sid] = marker
            known[name] = sid
            events.append(SessionStarted(marker))

        for sid in sorted(self._active.keys() - present):
            del self._active[sid]
            del known[marker_filename(sid)]
            events.append(SessionStopped(sid))
        for sid in self._reaped - present:
            self._reaped.discard(sid)
            del known[marker_filename(sid)]
        if self._bad_markers:
            self._bad_markers.intersection_update(names)

        now = self._wall_ns()
        horizon_ns = int(self.stale_timeout_s * 1e9)
        for sid in sorted(sid for sid, marker in self._active.items()
                          if now - marker.created_wall_ns > horizon_ns):
            del self._active[sid]
            self._reaped.add(sid)
            events.append(SessionReaped(sid))
        return events
