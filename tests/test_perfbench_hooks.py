"""The benchmark's trace hooks still find every name they wrap.

A traced benchmark run replaces attributes of wattflow modules and classes
by name (``accounting.node_window_energy``, ``SignalWatcher.poll_once``,
...).  Installing each hook here makes a deleted or renamed name fail the
test suite instead of a later traced benchmark run.
"""

from __future__ import annotations

import os
import sys

import pytest

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


@pytest.mark.parametrize("hook", ["instrument_report", "instrument_resume",
                                  "instrument_agent"])
def test_hook_wraps_and_restores(hook):
    tracer = Tracer()
    try:
        getattr(worker, hook)(tracer)
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert _current(owner, attr) is not original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert _current(owner, attr) is original
