"""Tests of the benchmark itself: span arithmetic, output transparency of
the launcher, metric coverage and the structural bypass predictions.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from tracer import Tracer, outermost_time, self_times  # noqa: E402

WORKLOADS = run.load_json("workloads.json")["workloads"]


def _span(i, name, start, end, parent=-1, cmd=0):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "cmd": cmd}


def _launch(cmd: str, mode: str) -> dict:
    return run.run_command(cmd.split(), mode, 0, time.monotonic() + 120)


def _traced_metrics(commands: list[str]) -> dict:
    deadline = time.monotonic() + 120
    results = [run.run_measured(cmd.split(), "trace", 0, deadline) for cmd in commands]
    for r in results:
        assert r["code"] == 0, r["stderr"]
    return run.per_layer([results])


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 2.0, 3.0, parent=1),
        _span(3, "c", 5.0, 9.0, parent=0),
        # Same ids in another command must not be taken for children.
        _span(0, "a", 0.0, 2.0, cmd=1),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"root": 3.0, "a": 2.0 + 2.0, "b": 1.0, "c": 4.0})


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, "p", 0.0, 10.0),
        _span(1, "x", 1.0, 6.0, parent=0),
        _span(2, "y", 4.0, 12.0, parent=0),
    ]
    assert self_times(spans)["p"] == pytest.approx(1.0)


def test_outermost_time_ignores_nested_setup_spans():
    spans = [
        _span(0, "rankone.build", 0.0, 5.0),
        _span(1, "grpcore.build", 1.0, 4.0, parent=0),
        _span(2, "ffield.make_field", 2.0, 3.0, parent=1),
        _span(3, "grpcore.classes", 6.0, 7.5),
    ]
    names = {"grpcore.build", "ffield.make_field", "grpcore.classes"}
    assert outermost_time(spans, names) == pytest.approx(4.5)


def test_tracer_links_nested_calls_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(cmd=7, clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1, count=lambda a, r: [("seen", r)])
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, 7), ("inner", 0, 7)]
    assert tracer.counters["seen"] == 2


def test_check_reports_each_kind_of_failure():
    report = json.dumps({"checks": [{"name": "x", "status": "fail"}]}).encode()
    digests = {"verify level0 --q 3": hashlib.sha256(report).hexdigest()}
    good = {"args": ["verify", "level0", "--q", "3"], "code": 0, "stdout": report, "stderr": b""}
    assert "check x is fail" in run.check(good, digests)
    assert "exit status 1" in run.check(dict(good, code=1), digests)
    assert "traceback" in run.check(dict(good, stderr=b"Traceback (most"), digests)
    assert "digest" in run.check(dict(good, stdout=b"{}"), digests)


def test_end_to_end_times_are_scaled_by_the_reference_loop():
    def result(wall, ref_wall, ref_loops):
        return {"wall_s": wall, "cpu_s": wall / 2, "setup_s": wall / 4, "rss_mb": 10.0,
                "ref_loops": ref_loops, "ref_wall_s": ref_wall, "ref_cpu_s": ref_wall / 2}

    # Mean loop 0.12 s wall and 0.06 s CPU: twice REFERENCE_S wall, once CPU.
    ref = 2 * run.REFERENCE_S
    passes = [[result(1.0, ref, 1), result(2.0, 3 * ref, 3)], [result(3.0, 2 * ref, 2)]]
    got = run.end_to_end(passes)
    assert got["wall_cal_s"] == pytest.approx(3.0 / 2)
    assert got["cpu_cal_s"] == pytest.approx(1.5 / 1)
    assert got["setup_s"] == pytest.approx(0.75 / 2)
    assert got["wall_s"] == pytest.approx(3.0) and got["peak_rss_mb"] == 10.0


def test_pass_commands_follow_the_seed():
    cmds = WORKLOADS["tables"]["commands"]
    a = run.pass_commands(cmds, random.Random(3))
    assert a == run.pass_commands(cmds, random.Random(3))
    assert sorted(" ".join(x[:4]) for x in a) == sorted(cmds)
    assert all(x[-2] == "--format" and x[-1] in ("csv", "json") for x in a)


def test_digests_cover_every_command_and_format():
    digests = run.load_json("expected.json")["digests"]
    for spec in WORKLOADS.values():
        for cmd in spec["commands"]:
            if cmd.startswith("chartable"):
                assert {cmd + " --format csv", cmd + " --format json"} <= set(digests)
            else:
                assert cmd in digests


def test_benchmark_json_names_match_the_code():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS
    for spec in WORKLOADS.values():
        assert set(spec["zero"]) <= set(PER_LAYER_UNITS)


@pytest.mark.parametrize(
    "cmd",
    [
        "chartable sl2 --q 3 --format csv",
        "chartable sl2 --q 3 --format json",
        "heis --p 3 --d 4 --realization nonsplit",
    ],
)
def test_launcher_leaves_stdout_unchanged(cmd):
    plain = subprocess.run(
        [sys.executable, "-m", "basechange.cli", *cmd.split()],
        cwd=run.ROOT, env=run.child_env(), capture_output=True, timeout=120,
    )
    untraced, traced = _launch(cmd, "setup"), _launch(cmd, "trace")
    assert plain.returncode == untraced["code"] == traced["code"] == 0
    assert untraced["stdout"] == traced["stdout"] == plain.stdout
    assert untraced["setup_s"] >= untraced["start_s"] > 0


def test_every_per_layer_metric_is_emitted():
    metrics = _traced_metrics(WORKLOADS["tables"]["smoke"])
    assert set(metrics) == set(PER_LAYER_UNITS)
    assert metrics["grpcore.oracle_tables"] == 3
    assert metrics["cli.start_s"] > 0 and metrics["trace.wall_s"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_bypassed_layers_stay_zero(workload):
    metrics = _traced_metrics(WORKLOADS[workload]["smoke"])
    for m in WORKLOADS[workload]["zero"]:
        assert metrics[m] == 0, m
    if workload == "groups":
        assert metrics["heis.lemma_s"] > 0 and metrics["rankone.tau_classes_s"] > 0
    else:
        assert metrics["grpcore.oracle_s"] > 0


def test_oracle_has_the_largest_self_time_on_a_table_export():
    metrics = _traced_metrics(["chartable u2 --q 5 --format csv"])
    own = {m: v for m, v in metrics.items() if m.endswith("_s") and m != "trace.wall_s"}
    assert max(own, key=own.get) == "grpcore.oracle_s"
