"""Byte identity of the CLI's artifacts on the bundled scenarios.

Every artifact ``wattflow simulate`` writes for each bundled scenario, and
``wattflow report`` over the simulated logs for each policy (and for
``cputime``/``walltime`` with an idle baseline), must hash to the recorded
SHA-256.  A refactor that changes any byte of a log, trace, report or
coverage table fails here; a deliberate format change updates the digest
in the same change and says why.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import pytest

from wattflow.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SIMULATE_DIGESTS = {
    "quantms_like": {
        "coverage_quantms_like.json":
            "804aa57b2a5dbed2a18d7c221eb6096d019fa2261426487edc8aea1eb650fb77",
        "coverage_quantms_like.txt":
            "2171221517790f96d9bfe41d6b43d446a669e393e662a3837619a50abf168cbe",
        "rapl_n1_quantms_like.csv":
            "74d28192671e6ab8d83c6a2cb724dc4926f9dfa5d7835a555059118d3fc92c9f",
        "report_quantms_like_interval-scrape.json":
            "779e3e756d545dffcf6a869bcae408d854c99c4c70887fd18b0764d8f99f099e",
        "report_quantms_like_shell-wrap.json":
            "f1448be4d1b30c9a0a7f446e78fa9d25384c48d87f44fde69703d463fa49f0fe",
        "report_quantms_like_signal-plugin.json":
            "0e8d01c694b272640c41e33eedaa5bf785d7001c5d3e084d30484d4892a08696",
        "report_quantms_like_signal-workflow.json":
            "6b16fb3e91bfde1f9c0cb19725196874eba622c50b3c4f9dfe05b054cc06e5d8",
        "trace_quantms_like.json":
            "d46f73a933943e688d14229d60fd18f0c44580491ae8aa129316cffefd78d239",
    },
    "rnaseq_like": {
        "coverage_rnaseq_like.json":
            "f7da0d2cdae07eb0f8c5e636d245e3ed3842753272b7bc22136620d20d9dfca8",
        "coverage_rnaseq_like.txt":
            "ce316987081805eb62cfd26ced4714fadf243e0b8c9d22552f47451f6ec658ce",
        "rapl_n1_rnaseq_like.csv":
            "3e954cd858b0b17ca470db18cb15f6a24cf23e972c7d42790d5a32d02d06383d",
        "report_rnaseq_like_interval-scrape.json":
            "07fecd240a9815a1993e87f0c32c79bf610d4577aae1b6d9ecb1fb10c7c858e7",
        "report_rnaseq_like_shell-wrap.json":
            "81ab611c3eea6a7688a923f095a2dea8d4cd10bfa9a30ed8f553eb359ebadd8e",
        "report_rnaseq_like_signal-plugin.json":
            "7bfc2623d4d2439879234b66d745f05a5184ec467993bff7c072a54cdf73352f",
        "report_rnaseq_like_signal-workflow.json":
            "2be63c281bf48c2bb83b85f613a2f7a24c06ab97b31828d156311afe6d8db767",
        "trace_rnaseq_like.json":
            "ecf4db7544f68ae3b66d70aa32f0437804c5c77a17ff145ee87dd4ee40a551de",
    },
}

# Each bundled scenario runs one task at a time, so the three policies
# split every segment alike and agree byte for byte.
REPORT_DIGESTS = {
    "quantms_like": {
        "":
            "d975e4aab90daaac6004f7ad39b917dfcaeff3ba649cf7c370beaaf360b67ae1",
        "5":
            "06c6bfab22e888ac1b780a44747ef2bc446b26bc9a1ec67ee4635e43a594a572",
    },
    "rnaseq_like": {
        "":
            "fade8d6be293cd2d953e5c0f29dcf486557efc99add53ca9c3b686263958f726",
        "5":
            "d500b13c64e235ce426becebfb6a4a8e3da7c628dc0d1e39ce1ddad3efa3f10d",
    },
}

REPORT_RUNS = [("cputime", ""), ("walltime", ""), ("exclusive", ""),
               ("cputime", "5"), ("walltime", "5")]


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def simulate(tmp_path, scenario_id: str) -> str:
    out = str(tmp_path / scenario_id)
    assert main(["simulate", "--scenario",
                 str(SCENARIOS / f"{scenario_id}.json"), "--out", out]) == 0
    return out


@pytest.mark.parametrize("scenario_id", sorted(SIMULATE_DIGESTS))
def test_simulate_artifacts_are_byte_identical(tmp_path, scenario_id):
    out = simulate(tmp_path, scenario_id)
    assert {name: sha256(os.path.join(out, name))
            for name in sorted(os.listdir(out))} == \
        SIMULATE_DIGESTS[scenario_id]


@pytest.mark.parametrize("scenario_id", sorted(REPORT_DIGESTS))
def test_reports_over_simulated_logs_are_byte_identical(tmp_path,
                                                        scenario_id):
    out = simulate(tmp_path, scenario_id)
    trace = os.path.join(out, f"trace_{scenario_id}.json")
    for policy, idle in REPORT_RUNS:
        target = str(tmp_path / f"report_{policy}_{idle}.json")
        argv = ["report", "--logs", out, "--trace", trace,
                "--policy", policy, "--out", target]
        if idle:
            argv += ["--idle-baseline-watts", idle]
        assert main(argv) == 0, (policy, idle)
        assert sha256(target) == REPORT_DIGESTS[scenario_id][idle], \
            (policy, idle)
