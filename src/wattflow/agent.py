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
A stop signal wakes the wait between ticks, so the agent exits at once.

Clocks are injectable so the whole tick schedule can be driven
synthetically in tests; ``run`` uses the real monotonic and wall clocks.
"""

from __future__ import annotations

import json
import logging
import os
import select
import signal as _signal
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .backends import (
    CounterBackend,
    MockBackend,
    MockProfile,
    MsrBackend,
    PowercapBackend,
)
from .counter import CounterSpec, RaplDomain, RawSample, wrap_horizon_s
from .errors import (
    AlreadyActiveError,
    InvalidArgumentError,
    SchemaViolationError,
    WattflowError,
)
from .logfile import LogStatus, LogWriter, format_tick, log_filename
from .signals import (
    DEFAULT_STALE_TIMEOUT_S,
    SessionReaped,
    SessionStarted,
    SessionStopped,
    SignalWatcher,
    WatcherFailed,
)

logger = logging.getLogger(__name__)

DEFAULT_INTERVAL_MS = 500
DEFAULT_MAX_POWER_WATTS = 250.0


@dataclass(frozen=True)
class SamplerConfig:
    """Static configuration of one node's sampling agent."""

    node_id: str
    domains: tuple[CounterSpec, ...]
    log_dir: str
    signal_dir: str
    interval_ms: int = DEFAULT_INTERVAL_MS
    max_power_watts: float = DEFAULT_MAX_POWER_WATTS
    stale_timeout_s: float = DEFAULT_STALE_TIMEOUT_S
    max_runtime_s: float | None = None

    def __post_init__(self) -> None:
        if not self.node_id:
            raise InvalidArgumentError("node_id must be non-empty")
        if self.interval_ms <= 0:
            raise InvalidArgumentError(
                f"interval_ms must be > 0, got {self.interval_ms}")
        if not self.domains:
            raise InvalidArgumentError("at least one domain is required")
        object.__setattr__(self, "domains", tuple(self.domains))
        seen = [spec.domain for spec in self.domains]
        if len(set(seen)) != len(seen):
            raise InvalidArgumentError("duplicate domain in config")
        if self.max_power_watts <= 0:
            raise InvalidArgumentError(
                f"max_power_watts must be > 0, got {self.max_power_watts}")


def build_backend(spec: CounterSpec, obj: Any,
                  start_ns: int = 0) -> CounterBackend:
    """Construct a counter backend from its config document.

    ``kind`` selects the backend: ``mock`` takes ``segments`` (pairs of
    duration seconds and watts); ``powercap`` takes ``zone_dir`` or
    discovers the zone under ``base_path``; ``msr`` takes ``device_path``.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaViolationError(
            "backend must be an object with a 'kind'",
            json_path="$.backend")
    kind = obj["kind"]
    try:
        if kind == "mock":
            segments = tuple((float(d), float(w))
                             for d, w in obj["segments"])
            profile = MockProfile(segments=segments, spec=spec)
            return MockBackend(profile, start_ns=start_ns)
        if kind == "powercap":
            if "zone_dir" in obj:
                return PowercapBackend(obj["zone_dir"])
            return PowercapBackend.discover(
                spec.domain,
                base_path=obj.get("base_path", "/sys/class/powercap"))
        if kind == "msr":
            return MsrBackend(obj.get("device_path", "/dev/cpu/0/msr"))
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
        for i, entry in enumerate(doc["domains"]):
            spec = CounterSpec(
                domain=RaplDomain.parse(entry.get("domain", "package")),
                bit_width=int(entry.get("bit_width", 32)),
                energy_unit_joules=float(entry.get("unit_j", 1e-6)))
            specs.append(spec)
            backends[spec.domain] = build_backend(
                spec, entry["backend"], start_ns=start_ns)
        config = SamplerConfig(
            node_id=doc["node_id"],
            domains=tuple(specs),
            log_dir=doc["log_dir"],
            signal_dir=doc["signal_dir"],
            interval_ms=int(doc.get("interval_ms", DEFAULT_INTERVAL_MS)),
            max_power_watts=float(
                doc.get("max_power_watts", DEFAULT_MAX_POWER_WATTS)),
            stale_timeout_s=float(
                doc.get("stale_timeout_s", DEFAULT_STALE_TIMEOUT_S)),
            max_runtime_s=(float(doc["max_runtime_s"])
                           if doc.get("max_runtime_s") is not None
                           else None))
        return config, backends
    except SchemaViolationError:
        raise
    except (KeyError, TypeError, ValueError, InvalidArgumentError) as exc:
        raise SchemaViolationError(
            f"bad agent config: {exc}") from None


def load_config(path: str, start_ns: int = 0
                ) -> tuple[SamplerConfig, dict[RaplDomain, CounterBackend]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaViolationError(f"not valid JSON: {exc}") from None
    return config_from_obj(doc, start_ns=start_ns)


class SamplerAgent:
    """Reads counters each tick and appends to active session logs.

    One backend read per domain per tick is shared across every active
    session, so concurrent sessions record identical samples.  A read that
    fails twice in one tick becomes a gap marker instead of a record; a
    log file that fails a write or refuses a reading (say, a raw value
    beyond the counter's declared width) is closed as truncated and its
    session dropped; a session whose log cannot be created (say, a missing
    log directory) is logged and skipped.
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
        self._skipped: set[str] = set()
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
        if session_id in self._writers or session_id in self._skipped:
            return
        path = f"{self.config.log_dir}/" \
               f"{log_filename(self.config.node_id, session_id)}"
        epoch_wall_ns = self._wall_ns() - self._mono_ns()
        try:
            writer = LogWriter(path, self.config.node_id, self._specs,
                               epoch_wall_ns=epoch_wall_ns)
        except AlreadyActiveError:
            logger.warning(
                "log %s already exists; ignoring session %s",
                path, session_id)
            self._skipped.add(session_id)
            return
        except OSError as exc:
            logger.error("cannot create log %s (%s); ignoring session %s",
                         path, exc, session_id)
            self._skipped.add(session_id)
            return
        self._writers[session_id] = writer
        logger.info("session %s started, logging to %s", session_id, path)

    def _close_writer(self, session_id: str, status: LogStatus) -> None:
        writer = self._writers.pop(session_id, None)
        self._skipped.discard(session_id)
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
        events = self._watcher.poll_once()
        stopped: list[str] = []
        reaped: list[str] = []
        for event in events:
            if isinstance(event, SessionStarted):
                self._open_writer(event.marker.session_id)
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
        if self._writers:
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
        """Sleep until the next tick, or until a stop signal arrives.

        The signal handler writes to a pipe, so a stop that lands before
        or during the wait ends it at once.
        """
        if self._wake_fd is None:
            time.sleep(seconds)
        else:
            select.select([self._wake_fd], [], [], seconds)

    def run(self, sleep: Callable[[float], None] | None = None) -> None:
        """Tick at the configured interval until told to stop.

        Ticks are scheduled at start + k * interval on the monotonic
        clock, so a slow tick shortens the following sleep instead of
        shifting the whole schedule.  Open logs are closed as truncated
        however the loop ends, an exception included.  ``sleep`` replaces
        the wait between ticks, which a stop signal otherwise cuts short.
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
