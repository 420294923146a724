"""Tests of the benchmark itself: generator, correctness gate, self time.

Run from the repository root with the standard library only::

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import gen  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from wattflow import cli  # noqa: E402
from wattflow.counter import RaplDomain  # noqa: E402

# A quarter hour, four slots, one gap marker: the dense shape in small.
SMALL = gen.Shape(
    hours=0.25, domains=(RaplDomain.PACKAGE, RaplDomain.DRAM), slots=4,
    task_s=(20.0, 90.0), pause_s=(0.0, 5.0),
    idle_w={RaplDomain.PACKAGE: (45, 65), RaplDomain.DRAM: (8, 14)},
    task_w={RaplDomain.PACKAGE: (10, 30), RaplDomain.DRAM: (1, 4)},
    gap_markers=1)


def _generate(tmp: str, name: str, seed: int) -> gen.Generated:
    return gen.generate("dense-attribution", seed, os.path.join(tmp, name),
                        shape=SMALL)


class GeneratorTest(unittest.TestCase):

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = _generate(tmp, "a", 7)
            b = _generate(tmp, "b", 7)
            c = _generate(tmp, "c", 8)
            digest = gen.digest_tree
            self.assertEqual(digest(os.path.dirname(a.log_dir)),
                             digest(os.path.dirname(b.log_dir)))
            self.assertNotEqual(digest(os.path.dirname(a.log_dir)),
                                digest(os.path.dirname(c.log_dir)))


class GateTest(unittest.TestCase):
    """The gate accepts wattflow's real report and rejects tampering."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        g = _generate(cls.tmp.name, "run", 3)
        cls.truth = g.truth(g.window_s)
        cls.path = os.path.join(cls.tmp.name, "report.json")
        cls.code = cli.main(["report", "--logs", g.log_dir,
                             "--trace", g.trace_path,
                             "--idle-baseline-watts", "40",
                             "--out", cls.path])
        with open(cls.path, encoding="utf-8") as fh:
            cls.report = json.load(fh)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def check(self, report: dict, code: int) -> list[str]:
        path = os.path.join(self.tmp.name, "tampered.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return run.check_report(path, code, 4, self.truth)[0]

    def test_untampered_report_passes(self):
        self.assertEqual(self.code, 4)      # the gap marker flags the log
        self.assertEqual(self.check(self.report, self.code), [])

    def test_bumped_task_joules_break_conservation(self):
        report = json.loads(json.dumps(self.report))
        report["per_task"][0]["joules_by_domain"]["package"] += 1e-3
        bad = self.check(report, self.code)
        self.assertTrue(any("unattributed" in b for b in bad), bad)

    def test_wrong_exit_code_is_rejected(self):
        bad = self.check(self.report, 0)
        self.assertTrue(any("exit 0" in b for b in bad), bad)

    def test_node_energy_off_truth_is_rejected(self):
        report = json.loads(json.dumps(self.report))
        report["per_node"]["n1"]["dram"] += 1e-4
        bad = self.check(report, self.code)
        self.assertTrue(any("n1/dram" in b for b in bad), bad)


class SelfTimeTest(unittest.TestCase):

    def test_hand_built_tree(self):
        # root 0-100 holds a 10-40 (holding c 15-25) and b 45-60 (holding
        # c 50-55); the clock is read once per span start and end.
        times = iter([0, 10, 15, 25, 40, 45, 50, 55, 60, 100])
        tracer = Tracer(clock=lambda: next(times))
        root = tracer.begin("root")
        a = tracer.begin("a")
        tracer.end(tracer.begin("c"))
        tracer.end(a)
        b = tracer.begin("b")
        tracer.end(tracer.begin("c"))
        tracer.end(b)
        tracer.end(root)
        self.assertEqual(tracer.stats, {
            "root": [1, 100, 100 - 30 - 15],
            "a": [1, 30, 30 - 10],
            "b": [1, 15, 15 - 5],
            "c": [2, 15, 15]})
        parents = {sid: parent for sid, _n, parent, _s, _e in tracer.spans}
        self.assertEqual(parents, {3: 2, 2: 1, 5: 4, 4: 1, 1: 0})

    def test_wrap_records_spans_and_restore_undoes_it(self):
        ticks = iter(range(0, 1000, 5))
        tracer = Tracer(clock=lambda: next(ticks))

        class Box:
            @staticmethod
            def leaf():
                return "leaf"

            @staticmethod
            def outer():
                return [Box.leaf(), Box.leaf()]

        original = Box.__dict__["leaf"]
        tracer.wrap(Box, "leaf", "leaf",
                    lambda t, _args, result: t.count("leaves", len(result)))
        tracer.wrap(Box, "outer", "outer")
        self.assertEqual(Box.outer(), ["leaf", "leaf"])
        tracer.restore()
        self.assertIs(Box.__dict__["leaf"], original)
        self.assertEqual(tracer.stats["leaf"], [2, 10, 10])
        self.assertEqual(tracer.stats["outer"], [1, 25, 15])
        self.assertEqual(tracer.counts, {"leaves": 8})


if __name__ == "__main__":
    unittest.main()
