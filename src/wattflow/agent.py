"""Per-node sampling agent.

The agent watches a signal directory for session markers and, while any
session is active, reads every configured counter domain once per tick and
appends the same readings to each active session's log file.  A tick's
lines are formatted once and each log takes them in one write; counter
files stay open between ticks, and known markers are not parsed again.
Stopping a session writes one final record before the trailer; sessions
whose marker goes stale are closed as reaped; a log that fails a write or
refuses a reading is closed as truncated rather than killing the agent, and
a session whose log cannot be created is skipped while the others keep
sampling.
Between ticks the agent polls the signal directory every
``MARKER_POLL_S`` and acts on a new marker at once, as a tick would: a start
opens its log with a reading, a stop takes the final reading and writes the
trailer.  That reading goes to every open log, and the tick schedule does
not move.  A stop signal wakes the wait between ticks, so the agent exits
at once.

Clocks are injectable so the whole tick schedule can be driven
synthetically in tests; ``run`` uses the real monotonic and wall clocks.
"""

from __future__ import annotations

import logging
import math
import os
import select
import signal as _signal
import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, Mapping

from .backends import (
    CounterBackend,
    MockBackend,
    MsrBackend,
    PowercapBackend,
    PowerProfile,
    TaskLoad,
)
from .counter import CounterSpec, RaplDomain, RawSample, wrap_horizon_s
from .errors import (
    CONVERSION_ERRORS,
    AlreadyActiveError,
    InvalidArgumentError,
    SchemaViolationError,
    WattflowError,
    load_json,
    present_keys,
)
from .logfile import LogStatus, LogWriter, format_tick, log_filename
from .signals import (
    DEFAULT_STALE_TIMEOUT_S,
    SessionEvent,
    SessionReaped,
    SessionStarted,
    SessionStopped,
    SignalWatcher,
    WatcherFailed,
    check_safe_id,
)

logger = logging.getLogger(__name__)

# Seconds between signal-directory polls while the agent waits for a tick.
MARKER_POLL_S = 0.020


@dataclass(frozen=True)
class SamplerConfig:
    """Static configuration of one node's sampling agent."""

    node_id: str
    domains: tuple[CounterSpec, ...]
    log_dir: str
    signal_dir: str
    interval_ms: int = 500
    max_power_watts: float = 250.0
    stale_timeout_s: float = DEFAULT_STALE_TIMEOUT_S
    max_runtime_s: float | None = None

    def __post_init__(self) -> None:
        check_safe_id("node_id", self.node_id)
        if self.interval_ms <= 0:
            raise InvalidArgumentError(
                f"interval_ms must be > 0, got {self.interval_ms}")
        if not self.domains:
            raise InvalidArgumentError("at least one domain is required")
        object.__setattr__(self, "domains", tuple(self.domains))
        seen = [spec.domain for spec in self.domains]
        if len(set(seen)) != len(seen):
            raise InvalidArgumentError("duplicate domain in config")
        for name in ("max_power_watts", "stale_timeout_s", "max_runtime_s"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value)
                                          and value > 0):
                raise InvalidArgumentError(
                    f"{name} must be finite and > 0, got {value}")


def _segments_profile(segments: Any) -> PowerProfile:
    """The mock's ``segments``, (duration_s, watts) pairs, as consecutive
    loads from time 0; the last never ends, so its power holds."""
    pairs = [(float(d), float(w)) for d, w in segments]
    if not (pairs and all(math.isfinite(d) and d > 0 for d, _ in pairs)):
        raise InvalidArgumentError(
            f"segments must be one or more (duration_s > 0, watts) pairs, "
            f"got {pairs}")
    bounds = [0.0, *accumulate(d for d, _ in pairs[:-1]), math.inf]
    return PowerProfile("mock", 0.0, tuple(
        TaskLoad(f"segment-{i}", bounds[i], bounds[i + 1], watts)
        for i, (_, watts) in enumerate(pairs)))


def build_backend(spec: CounterSpec, obj: Any,
                  start_ns: int = 0) -> CounterBackend:
    """Construct a counter backend from its config document.

    ``kind`` selects the backend: ``mock`` takes ``segments`` (pairs of
    duration seconds and watts, played from ``start_ns`` with the last
    level held); ``powercap`` takes ``zone_dir`` or
    discovers the zone under ``base_path``, and needs a 1e-6 J unit
    because the zone counts microjoules; ``msr`` takes ``device_path``.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaViolationError(
            "backend must be an object with a 'kind'",
            json_path="$.backend")
    kind = obj["kind"]
    try:
        if kind == "mock":
            return MockBackend(_segments_profile(obj["segments"]),
                               start_ns=start_ns)
        if kind == "powercap":
            if spec.energy_unit_joules != 1e-6:
                raise SchemaViolationError(
                    f"powercap reports microjoules; domain {spec.domain} "
                    f"declares unit_j {spec.energy_unit_joules}",
                    json_path="$.backend")
            if "zone_dir" in obj:
                return PowercapBackend(obj["zone_dir"])
            return PowercapBackend.discover(
                spec.domain, **present_keys(obj, base_path=os.fspath))
        if kind == "msr":
            return MsrBackend(**present_keys(obj, device_path=os.fspath))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolationError(
            f"bad backend config: {exc}", json_path="$.backend") from None
    raise SchemaViolationError(
        f"unknown backend kind {kind!r}", json_path="$.backend.kind")


def config_from_obj(doc: Any, start_ns: int = 0
                    ) -> tuple[SamplerConfig, dict[RaplDomain,
                                                   CounterBackend]]:
    """Parse an agent config document into config plus backends."""
    if not isinstance(doc, dict):
        raise SchemaViolationError("agent config must be an object")
    try:
        specs = []
        backends: dict[RaplDomain, CounterBackend] = {}
        for entry in doc["domains"]:
            spec = CounterSpec.from_obj(entry)
            specs.append(spec)
            backends[spec.domain] = build_backend(
                spec, entry["backend"], start_ns=start_ns)
        config = SamplerConfig(
            node_id=doc["node_id"], domains=tuple(specs),
            log_dir=doc["log_dir"], signal_dir=doc["signal_dir"],
            **present_keys(doc, interval_ms=int, max_power_watts=float,
                           stale_timeout_s=float,
                           max_runtime_s=lambda v: None if v is None
                           else float(v)))
        return config, backends
    except CONVERSION_ERRORS as exc:
        raise SchemaViolationError(
            f"bad agent config: {exc}") from None


def load_config(path: str, start_ns: int = 0
                ) -> tuple[SamplerConfig, dict[RaplDomain, CounterBackend]]:
    return config_from_obj(load_json(path), start_ns=start_ns)


class SamplerAgent:
    """Reads counters each tick and appends to active session logs.

    One backend read per domain per tick is shared across every active
    session, so concurrent sessions record identical samples.  A read that
    fails twice in one tick becomes a gap marker instead of a record; a
    log file that fails a write or refuses a reading (say, a raw value
    beyond the counter's declared width) is closed as truncated and its
    session dropped; a session whose log cannot be created (say, a missing
    log directory) is logged and skipped.

    ``run`` ticks on a fixed grid and, between ticks, polls the signal
    directory every ``MARKER_POLL_S``: a marker that appears or goes away
    is acted on at once with a reading off the grid, which every open log
    takes, so a session's first and final records are never a whole
    interval late.
    """

    def __init__(self, config: SamplerConfig,
                 backends: Mapping[RaplDomain, CounterBackend],
                 mono_ns: Callable[[], int] = time.monotonic_ns,
                 wall_ns: Callable[[], int] = time.time_ns) -> None:
        self.config = config
        self._backends = dict(backends)
        for spec in config.domains:
            if spec.domain not in self._backends:
                raise InvalidArgumentError(
                    f"no backend for domain {spec.domain}")
        self._specs = {spec.domain: spec for spec in config.domains}
        self._mono_ns = mono_ns
        self._wall_ns = wall_ns
        self._watcher = SignalWatcher(
            config.signal_dir, stale_timeout_s=config.stale_timeout_s,
            wall_ns=wall_ns)
        self._writers: dict[str, LogWriter] = {}
        self._stopping = False
        # Read end of the pipe a stop signal writes to; see _sleep.
        self._wake_fd: int | None = None
        self._warn_horizons()

    def _warn_horizons(self) -> None:
        for spec in self.config.domains:
            horizon = wrap_horizon_s(spec, self.config.max_power_watts)
            if self.config.interval_ms / 1000.0 > horizon / 2.0:
                logger.warning(
                    "interval %d ms exceeds half the %.3f s wrap horizon "
                    "of %s at %.0f W; wraps may be missed",
                    self.config.interval_ms, horizon, spec.domain,
                    self.config.max_power_watts)

    @property
    def active_sessions(self) -> tuple[str, ...]:
        return tuple(sorted(self._writers))

    def _open_writer(self, session_id: str) -> None:
        path = f"{self.config.log_dir}/" \
               f"{log_filename(self.config.node_id, session_id)}"
        epoch_wall_ns = self._wall_ns() - self._mono_ns()
        try:
            self._writers[session_id] = LogWriter(
                path, self.config.node_id, self._specs,
                epoch_wall_ns=epoch_wall_ns)
        except AlreadyActiveError:
            logger.warning(
                "log %s already exists; ignoring session %s",
                path, session_id)
        except OSError as exc:
            logger.error("cannot create log %s (%s); ignoring session %s",
                         path, exc, session_id)
        else:
            logger.info("session %s started, logging to %s", session_id,
                        path)

    def _close_writer(self, session_id: str, status: LogStatus) -> None:
        writer = self._writers.pop(session_id, None)
        if writer is None:
            return
        try:
            writer.close(status)
        except (OSError, ValueError):
            logger.error("failed to finalize log for session %s",
                         session_id)
        logger.info("session %s closed (%s)", session_id, status.value)

    def _read_all(self, now_ns: int) -> dict[RaplDomain, RawSample | None]:
        """One reading per domain; a double failure yields None."""
        readings: dict[RaplDomain, RawSample | None] = {}
        for spec in self.config.domains:
            backend = self._backends[spec.domain]
            sample = None
            for attempt in range(2):
                try:
                    sample = backend.read(
                        spec, self._mono_ns() if attempt else now_ns)
                    break
                except WattflowError as exc:
                    if attempt:
                        logger.warning("read of %s failed twice: %s",
                                       spec.domain, exc)
            readings[spec.domain] = sample
        return readings

    def _record_all(self, readings: Mapping[RaplDomain, RawSample | None],
                    gap_t_ns: int) -> None:
        """Format the tick once, in config domain order, and append it to
        every open log."""
        block = format_tick(self._specs, readings, gap_t_ns)
        for session_id, writer in list(self._writers.items()):
            try:
                writer.append_tick(block)
            except (OSError, ValueError, WattflowError) as exc:
                logger.error("log write failed for session %s (%s); "
                             "closing as truncated", session_id, exc)
                self._close_writer(session_id, LogStatus.TRUNCATED)

    def tick_once(self, now_ns: int | None = None) -> None:
        """One scheduler tick: poll signals, read counters, append.

        A session stopped this tick still receives this tick's reading as
        its final record, taken after the stop was detected.
        """
        if now_ns is None:
            now_ns = self._mono_ns()
        self._act(self._watcher.poll_once(), now_ns, scheduled=True)

    def _poll_between_ticks(self) -> None:
        """Act on marker changes now instead of at the next tick."""
        events = self._watcher.poll_once()
        if events:
            self._act(events, self._mono_ns(), scheduled=False)

    def _act(self, events: list[SessionEvent], now_ns: int,
             scheduled: bool) -> None:
        """Apply one poll's events and take the reading they call for.

        A scheduled tick reads whenever a log is open.  Between ticks the
        agent reads only when a log was just opened or a session with an
        open log stopped; the reading goes to every open log all the same,
        so concurrent sessions keep identical readings.
        """
        started: list[str] = []
        stopped: list[str] = []
        reaped: list[str] = []
        for event in events:
            if isinstance(event, SessionStarted):
                self._open_writer(event.marker.session_id)
                started.append(event.marker.session_id)
            elif isinstance(event, SessionStopped):
                stopped.append(event.session_id)
            elif isinstance(event, SessionReaped):
                reaped.append(event.session_id)
            elif isinstance(event, WatcherFailed):
                logger.error("signal watcher failed: %s", event.reason)
                for session_id in list(self._writers):
                    self._close_writer(session_id, LogStatus.TRUNCATED)
                self._stopping = True
                return
        for session_id in reaped:
            self._close_writer(session_id, LogStatus.REAPED)
        writers = self._writers
        if writers and (scheduled or any(
                sid in writers for sid in started + stopped)):
            readings = self._read_all(now_ns)
            self._record_all(readings, gap_t_ns=now_ns)
        for session_id in stopped:
            self._close_writer(session_id, LogStatus.CLOSED)

    def shutdown(self) -> None:
        """Close every open log and counter file; called on agent exit."""
        self._stopping = True
        for session_id in list(self._writers):
            self._close_writer(session_id, LogStatus.TRUNCATED)
        for backend in self._backends.values():
            backend.close()

    def _sleep(self, seconds: float) -> None:
        """Wait until the next tick, acting on markers as they appear.

        The signal directory is polled every ``MARKER_POLL_S``, except
        when the tick itself is due within that time.  The signal handler
        writes to a pipe, so a stop that lands before or during the wait
        ends it at once.
        """
        deadline = time.monotonic() + seconds
        while not self._stopping:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            nap = min(MARKER_POLL_S, remaining)
            if self._wake_fd is None:
                time.sleep(nap)
            else:
                select.select([self._wake_fd], [], [], nap)
            if self._stopping or remaining <= MARKER_POLL_S:
                return
            self._poll_between_ticks()

    def run(self, sleep: Callable[[float], None] | None = None) -> None:
        """Tick at the configured interval until told to stop.

        Ticks are scheduled at start + k * interval on the monotonic
        clock, so a slow tick shortens the following sleep instead of
        shifting the whole schedule.  Open logs are closed as truncated
        however the loop ends, an exception included.  ``sleep`` replaces
        the wait between ticks, which otherwise acts on markers as they
        appear and is cut short by a stop signal.
        """
        sleep = sleep or self._sleep
        interval_ns = self.config.interval_ms * 1_000_000
        start = self._mono_ns()
        k = 0
        try:
            while not self._stopping:
                self.tick_once(self._mono_ns())
                if self._stopping:
                    break
                if self.config.max_runtime_s is not None and \
                        self._mono_ns() - start >= \
                        self.config.max_runtime_s * 1e9:
                    break
                k += 1
                next_ns = start + k * interval_ns
                delay = next_ns - self._mono_ns()
                if delay > 0:
                    sleep(delay / 1e9)
        finally:
            self.shutdown()

    def install_signal_handlers(self) -> None:
        """Stop on SIGTERM or SIGINT, waking the wait between ticks.

        The wake-up pipe stays open for the life of the process, since a
        handler may still run after ``run`` returns.
        """
        self._wake_fd, wake_w = os.pipe()
        os.set_blocking(wake_w, False)

        def _handle(signum: int, frame: Any) -> None:
            logger.info("received signal %d, shutting down", signum)
            self._stopping = True
            try:
                os.write(wake_w, b"\0")
            except OSError:
                pass  # the pipe is full, so the wait wakes anyway

        _signal.signal(_signal.SIGTERM, _handle)
        _signal.signal(_signal.SIGINT, _handle)
