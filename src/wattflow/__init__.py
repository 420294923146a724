"""Coordinate, record, and account hardware energy-counter measurements.

The package wraps workflow executions in per-node counter sampling
sessions, parses the resulting logs with wrap-correct arithmetic,
attributes measured energy to scheduler tasks, and evaluates the
coordination methods against synthetic scenarios with analytic ground
truth.
"""

__version__ = "0.1.0"
