"""The spellings reports and the command line share.

Kept apart from :mod:`wattflow.accounting`, which re-exports them, so that
the command line can offer them as choices without importing accounting.
"""

from __future__ import annotations

from enum import Enum


class MeasurementMethod(Enum):
    SHELL_WRAP = "shell-wrap"
    SIGNAL_WORKFLOW = "signal-workflow"
    SIGNAL_PLUGIN = "signal-plugin"
    INTERVAL_SCRAPE = "interval-scrape"


class PolicyKind(Enum):
    CPU_TIME_SHARE = "cputime"
    WALL_TIME_SHARE = "walltime"
    EXCLUSIVE_ONLY = "exclusive"
